import dataclasses
import hashlib
import inspect
import json
import random
import shutil
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import SHIM_RUNNER

from vecport import executors
from vecport.corpus import CaseManifest, ValidatedCase
from vecport.errors import ConfigurationError, PerfError
from vecport.executors import (
    PERF_RUNS,
    CommandExecutor,
    MockExecutor,
    ToolchainConfig,
    TestResult,
    VlenRun,
)

HOST_GCC = shutil.which("gcc")


def make_case(tmp_path, test_c, bench_c, case_id="mini") -> ValidatedCase:
    d = tmp_path / case_id
    d.mkdir(parents=True, exist_ok=True)
    (d / "neon.c").write_text("/* unused here */\n")
    (d / "native.c").write_text("int mini_identity(int x) { return x; }\n")
    (d / "test.c").write_text(test_c)
    (d / "bench.c").write_text(bench_c)
    manifest = CaseManifest(
        case_id=case_id,
        source_path=d / "neon.c",
        functional_test_path=d / "test.c",
        perf_test_path=d / "bench.c",
        native_reference_path=d / "native.c",
        function_signature="int mini_identity(int x)",
    )
    return ValidatedCase(
        manifest=manifest,
        source_text=(d / "neon.c").read_text(),
        native_text=(d / "native.c").read_text(),
    )


TEST_HARNESS = """\
#include <stdio.h>
int mini_identity(int x);
int main(void) {
    if (mini_identity(41) != 41) { printf("wrong answer\\n"); return 1; }
    printf("ok\\n");
    return 0;
}
"""

BENCH_HARNESS = """\
#include <stdio.h>
int mini_identity(int x);
int main(void) {
    long acc = 0;
    for (int i = 0; i < 1000000; i++) acc += mini_identity(i);
    printf("acc %ld\\n", acc);
    printf("%d\\n", 120000);
    return 0;
}
"""

GOOD_CANDIDATE = "int mini_identity(int x) { return x; }\n"


def host_config(cc=None, **kw) -> ToolchainConfig:
    return ToolchainConfig(
        cc=cc or HOST_GCC or "gcc",
        flags="-O1",
        runner=SHIM_RUNNER,
        vlens=(128,),
        **kw,
    )


def _script(path: Path, body: str) -> Path:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return path


def _script_config(cc="/bin/true") -> ToolchainConfig:
    """Runs each binary through the shim's runner; the script under test
    stands in for it."""
    return ToolchainConfig(cc=str(cc), runner=SHIM_RUNNER, vlens=(128, 256))


def _logging_cc(tmp_path, hold=None):
    """A cc that appends its argv to a log, then runs host gcc. A call whose
    argv holds the text ``hold`` first waits, for 20 s at most, until a file
    ``release`` appears beside the log, and then logs "released"."""
    log = tmp_path / "cc.log"
    wait = ""
    if hold:
        wait = (f'case "$*" in *"{hold}"*)\n'
                f'    n=0; while [ ! -e "{tmp_path / "release"}" ] && [ $n -lt 400 ]; do\n'
                f'        sleep 0.05; n=$((n + 1)); done\n'
                f'    echo released >> "{log}" ;;\nesac\n')
    cc = _script(tmp_path / "logging-cc", f'echo "$*" >> "{log}"\n{wait}exec "{HOST_GCC}" "$@"\n')
    return str(cc), log


def _source(text: str) -> str:
    """The file name a candidate's text is compiled from."""
    return f"cand-{hashlib.sha256(text.encode()).hexdigest()}.c"


def _links(log: Path) -> list[str]:
    """The output names of the logged link calls, in order."""
    calls = [c.split() for c in log.read_text().splitlines()]
    return [Path(c[-1]).name for c in calls if "-o" in c and "-c" not in c]


def test_toolchain_config_validates_vlens(tmp_path):
    for build in (lambda vlens: ToolchainConfig(vlens=vlens),
                  lambda vlens: MockExecutor(vlens=vlens)):
        with pytest.raises(ConfigurationError):
            build(())
        with pytest.raises(ConfigurationError):
            build((100,))
        with pytest.raises(ConfigurationError):
            build((16,))
        build((32, 65536))  # extremes are legal


def test_probe_names_the_missing_tool(tmp_path):
    config = ToolchainConfig(cc="definitely-not-a-compiler-xyz")
    executor = CommandExecutor(config, tmp_path / "work")
    with pytest.raises(ConfigurationError, match="definitely-not-a-compiler-xyz"):
        executor.probe()


@pytest.mark.skipif(HOST_GCC is None, reason="host gcc not available")
class TestCommandExecutorOnHost:
    def test_compile_and_pass(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        ex = CommandExecutor(host_config(), tmp_path / "work")
        ex.probe()
        result = ex.compile_candidate(GOOD_CANDIDATE, case, "functional")
        assert result.success, result.diagnostics
        tested = ex.run_functional_tests(result.artifact_path)
        assert tested.all_passed
        assert tested.per_vlen[128].exit_code == 0

    def test_misspelled_symbol_lands_in_diagnostics(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        ex = CommandExecutor(host_config(), tmp_path / "work")
        bad = "int mini_identity(int x) { return mini_identityy_helper(x); }\n"
        result = ex.compile_candidate(bad, case, "functional")
        assert not result.success
        assert "mini_identityy_helper" in result.diagnostics

    def test_case_directory_never_modified(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        case_dir = case.manifest.source_path.parent
        before = {p.name: p.read_bytes() for p in case_dir.iterdir()}
        ex = CommandExecutor(host_config(), tmp_path / "work")
        ex.compile_candidate(GOOD_CANDIDATE, case, "functional")
        after = {p.name: p.read_bytes() for p in case_dir.iterdir()}
        assert before == after

    def test_failing_candidate_fails_tests(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        ex = CommandExecutor(host_config(), tmp_path / "work")
        wrong = "int mini_identity(int x) { return x + 1; }\n"
        result = ex.compile_candidate(wrong, case, "functional")
        tested = ex.run_functional_tests(result.artifact_path)
        assert not tested.all_passed
        assert "wrong answer" in tested.per_vlen[128].output_tail

    def test_infinite_loop_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(executors, "RUN_TIMEOUT_S", 1)
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        ex = CommandExecutor(host_config(), tmp_path / "work")
        spin = "int mini_identity(int x) { while (x != x + 1) {} return x; }\n"
        result = ex.compile_candidate(spin, case, "functional")
        assert result.success
        tested = ex.run_functional_tests(result.artifact_path)
        assert not tested.all_passed
        assert tested.per_vlen[128].exit_code is None
        assert "timeout" in tested.per_vlen[128].output_tail

    def test_perf_medians_and_speedup(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        ex = CommandExecutor(host_config(), tmp_path / "work")
        translated = ex.compile_candidate(GOOD_CANDIDATE, case, "perf")
        native = ex.compile_candidate(case.native_text, case, "perf")
        assert translated.success and native.success
        perf = ex.run_perf(translated.artifact_path, native.artifact_path)
        # both harness builds print the same fixed cost line
        assert perf.translated_cost_ns == 120000
        assert perf.native_cost_ns == 120000
        assert perf.speedup == 1
        assert perf.to_dict()["runs"] == PERF_RUNS

    def test_harness_objects_built_once_per_case(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        cc, log = _logging_cc(tmp_path)
        ex = CommandExecutor(host_config(cc=cc), tmp_path / "work")
        candidates = [f"int mini_identity(int x) {{ return x + {n} - {n}; }}\n" for n in range(3)]
        for candidate in candidates:
            for which in ("functional", "perf"):
                result = ex.compile_candidate(candidate, case, which)
                assert result.success, result.diagnostics
        ex.drain()  # the native build is queued ahead; let it finish
        calls = log.read_text().splitlines()
        assert sum("test.c" in c for c in calls) == 1
        assert sum("bench.c" in c for c in calls) == 1
        for candidate in candidates:
            assert sum(_source(candidate) in c for c in calls) == 1
        # built ahead, never asked for
        assert sum(_source(case.native_text) in c for c in calls) == 1
        assert sum(" -c " in c for c in calls) == 6  # two harnesses, three candidates, native
        assert ex.run_functional_tests(result.artifact_path).all_passed

    def test_candidate_compiled_once_for_both_harnesses(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        cc, log = _logging_cc(tmp_path)
        ex = CommandExecutor(host_config(cc=cc), tmp_path / "work")
        functional = ex.compile_candidate(GOOD_CANDIDATE, case, "functional")
        perf = ex.compile_candidate(GOOD_CANDIDATE, case, "perf")
        assert functional.success and perf.success
        calls = log.read_text().splitlines()
        assert sum(_source(GOOD_CANDIDATE) in c for c in calls) == 1
        assert ex.run_functional_tests(functional.artifact_path).all_passed
        assert ex.run_perf(perf.artifact_path, perf.artifact_path).speedup == 1

    @pytest.mark.parametrize("which", ["functional", "perf"])
    def test_broken_harness_reads_the_same_queued_or_not(self, tmp_path, which):
        broken = "int mini_identity(int x);\nint main(void) { return mini_identity(1) }\n"
        harnesses = {"functional": (broken, BENCH_HARNESS), "perf": (TEST_HARNESS, broken)}
        case = make_case(tmp_path, *harnesses[which])
        cc, log = _logging_cc(tmp_path)
        ex = CommandExecutor(host_config(cc=cc), tmp_path / "work")
        # The first call's harness build was queued ahead; a failure is not
        # kept, so the second call builds the harness itself.
        queued = ex.compile_candidate(GOOD_CANDIDATE, case, which)
        direct = ex.compile_candidate(GOOD_CANDIDATE, case, which)
        ex.drain()
        assert (queued.success, direct.success) == (False, False)
        assert queued.diagnostics == direct.diagnostics
        assert "expected" in queued.diagnostics
        # each build's own compiler output stays beside what it built
        assert "expected" in (ex.work_dir / "mini" / "obj" / f"{which}.log").read_text()
        source = "test.c" if which == "functional" else "bench.c"
        assert sum(source in c for c in log.read_text().splitlines()) == 2

    def test_a_failing_candidate_returns_without_waiting_for_its_harness(self, tmp_path):
        bad = "int mini_identity(int x) { return x }\n"
        broken = "int mini_identity(int x);\nint main(void) { return mini_identity(1) }\n"
        read = {}
        for state in ("queued", "built", "broken"):
            # One work directory, so the diagnostics name the same paths.
            case = make_case(tmp_path / state, broken if state == "broken" else TEST_HARNESS,
                             BENCH_HARNESS)
            cc, log = _logging_cc(tmp_path / state, hold="/test.c " if state == "queued" else None)
            ex = CommandExecutor(host_config(cc=cc), tmp_path / "work")
            if state == "built":
                assert ex.compile_candidate(GOOD_CANDIDATE, case, "functional").success
            read[state] = ex.compile_candidate(bad, case, "functional")
            if state == "queued":
                assert "released" not in log.read_text()  # the harness build is still held
                (tmp_path / state / "release").touch()
            ex.cleanup()
        assert read["queued"] == read["built"] == read["broken"]
        assert not read["queued"].success
        assert f"obj/{_source(bad)}" in read["queued"].diagnostics
        assert "test.c" not in read["queued"].diagnostics

    def test_perf_binary_is_linked_ahead_by_the_functional_compile(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        cc, log = _logging_cc(tmp_path)
        ex = CommandExecutor(host_config(cc=cc), tmp_path / "work")
        candidate = "int mini_identity(int x) { return x + 0; }\n"  # not the native text
        functional = ex.compile_candidate(candidate, case, "functional")
        ex.drain()  # the queued perf link has run
        # the native perf link, and the candidate's functional and perf links
        assert sorted(_links(log)) == ["bin_functional", "bin_perf", "bin_perf"]
        perf = ex.compile_candidate(candidate, case, "perf")
        assert len(_links(log)) == 3
        digest = hashlib.sha256(candidate.encode()).hexdigest()
        assert perf.artifact_path == ex.work_dir / "mini" / "bin" / f"perf-{digest}" / "bin_perf"
        assert ex.run_functional_tests(functional.artifact_path).all_passed
        assert ex.run_perf(perf.artifact_path, perf.artifact_path).speedup == 1
        assert (perf.artifact_path.parent / "stdout.txt").read_text().endswith("120000\n")

    def test_broken_link_reads_the_same_queued_or_not(self, tmp_path):
        unlinkable = "int mini_missing(int x);\nint main(void) { return mini_missing(1); }\n"
        case = make_case(tmp_path, TEST_HARNESS, unlinkable)
        cc, log = _logging_cc(tmp_path)
        ex = CommandExecutor(host_config(cc=cc), tmp_path / "work")
        assert ex.compile_candidate(GOOD_CANDIDATE, case, "functional").success
        ex.drain()  # the perf link queued ahead has failed before anyone asked
        # A failure is not kept: the first perf compile takes the queued
        # failure, the second links again.
        queued = ex.compile_candidate(GOOD_CANDIDATE, case, "perf")
        direct = ex.compile_candidate(GOOD_CANDIDATE, case, "perf")
        assert (queued.success, direct.success) == (False, False)
        assert queued.diagnostics == direct.diagnostics
        assert "mini_missing" in queued.diagnostics
        digest = hashlib.sha256(GOOD_CANDIDATE.encode()).hexdigest()
        link_log = ex.work_dir / "mini" / "bin" / f"perf-{digest}" / "bin_perf.log"
        assert "mini_missing" in link_log.read_text()
        assert _links(log).count("bin_perf") == 2

    def test_a_build_queued_behind_a_held_one_is_built_by_its_asker(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        cc, log = _logging_cc(tmp_path, hold="/test.c ")
        ex = CommandExecutor(host_config(cc=cc), tmp_path / "work")
        # The build thread holds on test.c, with bench.c queued behind it.
        perf = ex.compile_candidate(GOOD_CANDIDATE, case, "perf")
        assert perf.success, perf.diagnostics
        assert "released" not in log.read_text()
        (tmp_path / "release").touch()
        ex.drain()
        calls = log.read_text().splitlines()
        assert sum("bench.c" in c for c in calls) == 1
        assert _links(log) == ["bin_perf"]
        assert ex.run_perf(perf.artifact_path, perf.artifact_path).speedup == 1

    def test_a_queued_build_that_cannot_start_is_a_configuration_error(
        self, tmp_path, monkeypatch
    ):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        cc, log = _logging_cc(tmp_path)
        ex = CommandExecutor(host_config(cc=cc), tmp_path / "work")
        run = executors.subprocess.run

        def no_compiler_for_the_harness(argv, **kwargs):
            if any(arg.endswith("test.c") for arg in argv):
                raise FileNotFoundError(2, "No such file or directory", argv[0])
            return run(argv, **kwargs)

        monkeypatch.setattr(executors.subprocess, "run", no_compiler_for_the_harness)
        with pytest.raises(ConfigurationError, match="^compiler not runnable: "):
            ex.compile_candidate(GOOD_CANDIDATE, case, "functional")
        ex.drain()
        # The exception was handed over, not kept: the harness builds again.
        monkeypatch.setattr(executors.subprocess, "run", run)
        again = ex.compile_candidate(GOOD_CANDIDATE, case, "functional")
        assert again.success, again.diagnostics
        assert sum("test.c" in c for c in log.read_text().splitlines()) == 1

    def test_diagnostics_do_not_name_the_work_directory(self, tmp_path, monkeypatch):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        broken = {
            "compile": "int mini_identity(int x) { return x }\n",
            "link": "int mini_identty(int x) { return x; }\n",  # main calls mini_identity
        }
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        read = []
        for work_dir in (tmp_path / "abs-work", Path("rel-work")):
            ex = CommandExecutor(host_config(), work_dir)
            read.append({what: ex.compile_candidate(text, case, "functional").diagnostics
                         for what, text in broken.items()})
            ex.cleanup()
        assert read[0] == read[1]
        assert f"obj/{_source(broken['compile'])}:1:36: error:" in read[0]["compile"]
        assert "obj/functional.o: in function" in read[0]["link"]
        assert "undefined reference" in read[0]["link"]
        for diagnostics in (*read[0].values(), *read[1].values()):
            assert "abs-work" not in diagnostics and "rel-work" not in diagnostics

    def test_only_the_thread_that_builds_a_candidate_writes_its_source(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        native = _source(case.native_text)
        cc, log = _logging_cc(tmp_path, hold=native)
        ex = CommandExecutor(host_config(cc=cc), tmp_path / "work")
        # The first compile queues the native object, and the build thread
        # holds on it; the case thread then asks for the native text.
        first = ex.compile_candidate("int mini_identity(int x) { return x + 0; }\n", case,
                                     "functional")
        assert first.success, first.diagnostics
        deadline = time.monotonic() + 20
        while native not in log.read_text():
            assert time.monotonic() < deadline, "the native build never started"
            time.sleep(0.01)
        release = threading.Timer(0.2, (tmp_path / "release").touch)
        release.start()
        try:
            asked = ex.compile_candidate(case.native_text, case, "perf")
        finally:
            release.join()
            ex.drain()
        assert asked.success, asked.diagnostics
        calls = log.read_text().splitlines()
        assert "released" in calls
        assert sum(native in c for c in calls) == 1
        assert (ex.work_dir / "mini" / "obj" / native).read_text() == case.native_text

    def test_failed_candidate_compile_is_not_cached(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        cc, log = _logging_cc(tmp_path)
        ex = CommandExecutor(host_config(cc=cc), tmp_path / "work")
        bad = "int mini_identity(int x) { return x }\n"
        for _ in range(2):
            result = ex.compile_candidate(bad, case, "functional")
            assert not result.success
            assert f"obj/{_source(bad)}" in result.diagnostics
        assert sum(_source(bad) in c for c in log.read_text().splitlines()) == 2

    def test_cleanup_removes_work_dir(self, tmp_path):
        case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
        ex = CommandExecutor(host_config(), tmp_path / "work")
        assert ex.compile_candidate(GOOD_CANDIDATE, case, "functional").success
        assert (tmp_path / "work" / case.case_id / "obj").is_dir()
        ex.cleanup()
        assert not (tmp_path / "work").exists()
        # the executor rebuilds what cleanup removed
        again = ex.compile_candidate(GOOD_CANDIDATE, case, "functional")
        assert again.success and ex.run_functional_tests(again.artifact_path).all_passed

    def test_unparsable_cost_is_a_perf_error(self, tmp_path):
        bench = '#include <stdio.h>\nint mini_identity(int x);\nint main(void) { printf("no numbers here\\n"); return 0; }\n'
        case = make_case(tmp_path, TEST_HARNESS, bench)
        ex = CommandExecutor(host_config(), tmp_path / "work")
        translated = ex.compile_candidate(GOOD_CANDIDATE, case, "perf")
        with pytest.raises(PerfError, match="cost line"):
            ex.run_perf(translated.artifact_path, translated.artifact_path)

    def test_zero_cost_is_a_perf_error(self, tmp_path):
        bench = '#include <stdio.h>\nint mini_identity(int x);\nint main(void) { printf("0\\n"); return 0; }\n'
        case = make_case(tmp_path, TEST_HARNESS, bench)
        ex = CommandExecutor(host_config(), tmp_path / "work")
        translated = ex.compile_candidate(GOOD_CANDIDATE, case, "perf")
        with pytest.raises(PerfError, match="non-positive cost"):
            ex.run_perf(translated.artifact_path, translated.artifact_path)


@pytest.mark.parametrize(
    "name", ["probe", "compile_candidate", "run_functional_tests", "run_perf", "cleanup"]
)
def test_both_executors_take_the_same_parameters(name):
    # The orchestrator calls either executor the same way, so a parameter on
    # one of them only would break the pipeline on the other.
    command = inspect.signature(getattr(CommandExecutor, name))
    assert command == inspect.signature(getattr(MockExecutor, name))


@pytest.mark.parametrize("kind", ["command", "mock"])
def test_an_unknown_harness_is_a_value_error_on_both_executors(tmp_path, kind):
    # The harness is checked before anything is compiled, so no compiler runs.
    case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
    if kind == "command":
        ex = CommandExecutor(_script_config(), work_dir=tmp_path / "work")
    else:
        ex = MockExecutor()
    with pytest.raises(ValueError) as info:
        ex.compile_candidate(GOOD_CANDIDATE, case, "bogus")
    assert str(info.value) == "unknown harness 'bogus'"
    assert not (tmp_path / "work").exists()


# --- mock executor ---------------------------------------------------------

def test_mock_compile_error_marker(tmp_path):
    case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
    ex = MockExecutor()
    bad = "/* mock-compile-error: error: unknown intrinsic __riscv_vfoo */\nvoid f(void) {}\n"
    result = ex.compile_candidate(bad, case, "functional")
    assert not result.success
    assert "__riscv_vfoo" in result.diagnostics


def test_mock_clean_source_passes_everything(tmp_path):
    case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
    ex = MockExecutor()
    result = ex.compile_candidate("void f(void) {}\n", case, "functional")
    assert result.success
    tested = ex.run_functional_tests(result.artifact_path)
    assert tested.all_passed
    assert set(tested.per_vlen) == {128, 256}


def test_mock_vlen_specific_failure(tmp_path):
    case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
    ex = MockExecutor()
    lanes = "/* mock-test-fail: vlen=256 hardcoded 4-lane tail went wrong */\nvoid f(void) {}\n"
    result = ex.compile_candidate(lanes, case, "functional")
    tested = ex.run_functional_tests(result.artifact_path)
    assert not tested.all_passed
    assert tested.per_vlen[128].passed
    assert not tested.per_vlen[256].passed
    assert "VLEN=256" in tested.describe()
    assert "hardcoded 4-lane tail" in tested.describe()


def test_mock_timeout_marker(tmp_path):
    case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
    ex = MockExecutor()
    result = ex.compile_candidate("/* mock-run-timeout */\n", case, "functional")
    tested = ex.run_functional_tests(result.artifact_path)
    assert not tested.all_passed
    assert all(r.exit_code is None for r in tested.per_vlen.values())


def test_mock_costs_and_speedup(tmp_path):
    case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
    case = dataclasses.replace(case, native_text="/* mock-cost: 130000 */\n" + case.native_text)
    ex = MockExecutor()
    fast = ex.compile_candidate("/* mock-cost: 100000 */\n", case, "perf")
    native = ex.compile_candidate(case.native_text, case, "perf")
    perf = ex.run_perf(fast.artifact_path, native.artifact_path)
    assert perf.speedup == Fraction(13, 10)
    assert perf.native_cost_ns == 130000


def test_mock_handle_is_named_by_the_source(tmp_path):
    case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
    ex = MockExecutor()
    first, again = (ex.compile_candidate(GOOD_CANDIDATE, case, "perf") for _ in range(2))
    other = ex.compile_candidate(GOOD_CANDIDATE + "\n", case, "perf")
    functional = ex.compile_candidate(GOOD_CANDIDATE, case, "functional")
    assert first.artifact_path == again.artifact_path
    assert len({first.artifact_path, other.artifact_path, functional.artifact_path}) == 3


def test_mock_failure_message_ends_at_any_line_break(tmp_path):
    case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
    ex = MockExecutor()
    for eol in ("\n", "\r\n", "\r"):
        source = f"/* mock-test-fail: vlen=128 lanes went wrong */{eol}void f(void) {{}}{eol}"
        result = ex.compile_candidate(source, case, "functional")
        tested = ex.run_functional_tests(result.artifact_path)
        assert tested.per_vlen[128].output_tail == "lanes went wrong"
        assert tested.per_vlen[256].passed


def test_mock_executor_creates_no_files(tmp_path, monkeypatch):
    case = make_case(tmp_path / "corpus", TEST_HARNESS, BENCH_HARNESS)
    tmpdir, cwd = tmp_path / "tmp", tmp_path / "cwd"
    tmpdir.mkdir()
    cwd.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    monkeypatch.chdir(cwd)
    ex = MockExecutor()
    fast = ex.compile_candidate("/* mock-cost: 50000 */\n", case, "perf")
    native = ex.compile_candidate(case.native_text, case, "perf")
    assert ex.run_functional_tests(fast.artifact_path).all_passed
    assert ex.run_perf(fast.artifact_path, native.artifact_path).speedup == 2
    ex.cleanup()
    assert list(tmpdir.iterdir()) == list(cwd.iterdir()) == []


def test_mock_executor_shared_across_threads(tmp_path):
    cases = [make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS, case_id=f"c{i}") for i in range(8)]
    ex = MockExecutor()

    def costs_read_back(case):
        base = 1000 * int(case.case_id[1:]) + 1000
        read = []
        for n in range(200):
            built = ex.compile_candidate(f"/* mock-cost: {base + n} */\n", case, "perf")
            read.append(ex.run_perf(built.artifact_path, built.artifact_path).translated_cost_ns)
        return read == [base + n for n in range(200)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(cases)) as pool:
            results = list(pool.map(costs_read_back, cases, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * len(cases)


def _cost_script(path: Path, costs):
    path.write_text(
        "#!/usr/bin/env python3\n"
        "import pathlib\n"
        "d = pathlib.Path(__file__).parent / (pathlib.Path(__file__).name + '.count')\n"
        "n = int(d.read_text()) if d.exists() else 0\n"
        "d.write_text(str(n + 1))\n"
        f"costs = {list(costs)}\n"
        "print(costs[n % len(costs)])\n"
    )
    path.chmod(0o755)
    return path


def test_perf_median_invariant_under_run_order(tmp_path):
    config = ToolchainConfig(cc="/bin/true", runner=SHIM_RUNNER, vlens=(128,))
    ex = CommandExecutor(config, tmp_path / "work")
    ordered = _cost_script(tmp_path / "ordered.py", [80000, 100000, 120000])
    shuffled = _cost_script(tmp_path / "shuffled.py", [120000, 80000, 100000])
    native = _cost_script(tmp_path / "native.py", [200000, 200000, 200000])
    a = ex.run_perf(ordered, native)
    b = ex.run_perf(shuffled, native)
    assert a.translated_cost_ns == b.translated_cost_ns == 100000
    assert a.speedup == b.speedup == Fraction(2)


def test_native_reference_measured_once_per_artifact(tmp_path):
    ex = CommandExecutor(_script_config(), tmp_path / "work")
    first = _cost_script(tmp_path / "first.py", [100000])
    second = _cost_script(tmp_path / "second.py", [50000])
    native = _cost_script(tmp_path / "native.py", [200000])
    a = ex.run_perf(first, native)
    b = ex.run_perf(second, native)
    assert (a.speedup, b.speedup) == (Fraction(2), Fraction(4))
    assert a.native_cost_ns == b.native_cost_ns == 200000
    assert (tmp_path / "native.py.count").read_text() == "5"
    assert (tmp_path / "second.py.count").read_text() == "5"


# --- hostile tool output -----------------------------------------------------

def test_non_utf8_test_output_is_a_failed_test(tmp_path):
    ex = CommandExecutor(_script_config(), tmp_path / "work")
    binary = _script(tmp_path / "bin_functional", "printf 'bad \\377\\376 bytes\\n'\nexit 1\n")
    tested = ex.run_functional_tests(binary)
    assert not tested.all_passed
    assert tested.per_vlen[128].exit_code == 1
    assert "bad \ufffd\ufffd bytes" in tested.per_vlen[128].output_tail
    assert "\ufffd" in tested.describe()


def test_non_utf8_compiler_diagnostics_are_a_failed_compile(tmp_path):
    cc = _script(tmp_path / "cc", "printf 'error: \\377 not here\\n' >&2\nexit 1\n")
    case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
    ex = CommandExecutor(_script_config(cc), tmp_path / "work")
    result = ex.compile_candidate(GOOD_CANDIDATE, case, "functional")
    assert not result.success
    assert "error: \ufffd not here" in result.diagnostics


def test_non_utf8_perf_output_is_parsed_or_a_perf_error(tmp_path):
    ex = CommandExecutor(_script_config(), tmp_path / "work")
    native = _cost_script(tmp_path / "native.py", [200000])
    noisy = _script(tmp_path / "noisy", "printf '\\377\\377\\n100000\\n'\n")
    assert ex.run_perf(noisy, native).speedup == Fraction(2)
    garbage = _script(tmp_path / "garbage", "printf '\\377\\377\\n'\n")
    with pytest.raises(PerfError, match="cost line"):
        ex.run_perf(garbage, native)


def test_a_perf_run_that_fails_is_a_perf_error_naming_its_exit_code(tmp_path):
    ex = CommandExecutor(_script_config(), tmp_path / "work")
    native = _cost_script(tmp_path / "native.py", [200000])
    failed = _script(tmp_path / "failed", "echo 100000\nexit 3\n")
    with pytest.raises(PerfError, match="^benchmark binary exited with 3$"):
        ex.run_perf(failed, native)


def test_perf_cost_is_the_last_stdout_line_whatever_stderr_says(tmp_path):
    ex = CommandExecutor(_script_config(), tmp_path / "work")
    native = _cost_script(tmp_path / "native.py", [240000])
    warned = _script(tmp_path / "warned", "echo 120000\necho warning >&2\n")
    assert ex.run_perf(warned, native).translated_cost_ns == 120000
    only_stderr = _script(tmp_path / "only_stderr", "echo 120000 >&2\n")
    with pytest.raises(PerfError, match="cost line") as failed:
        ex.run_perf(only_stderr, native)
    # The failing run's output is beside its binary while ``failed`` still
    # holds the error, so it was written before the error left run_perf.
    assert (tmp_path / "stderr.txt").read_text() == "120000\n"
    assert (tmp_path / "stdout.txt").read_text() == ""


def test_functional_output_tail_keeps_stdout_and_stderr(tmp_path):
    ex = CommandExecutor(_script_config(), tmp_path / "work")
    binary = _script(tmp_path / "bin_both", "echo on-stdout\necho on-stderr >&2\nexit 1\n")
    tail = ex.run_functional_tests(binary).per_vlen[128].output_tail
    assert "on-stdout" in tail and "on-stderr" in tail


def test_tool_timeouts_are_failures_that_name_their_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(executors, "COMPILE_TIMEOUT_S", 1)
    monkeypatch.setattr(executors, "RUN_TIMEOUT_S", 1)
    config = dataclasses.replace(
        _script_config(_script(tmp_path / "cc", "exec sleep 30\n")), vlens=(128,)
    )
    ex = CommandExecutor(config, tmp_path / "work")
    case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
    result = ex.compile_candidate(GOOD_CANDIDATE, case, "functional")
    assert not result.success
    assert result.diagnostics.startswith("compile timeout after 1s")
    (tmp_path / "ran").mkdir()
    (tmp_path / "hung").mkdir()
    ran = _script(tmp_path / "ran" / "bin", "echo out\necho err >&2\n")
    hung = _script(tmp_path / "hung" / "bin", "exec sleep 30\n")
    assert ex.run_functional_tests(ran).all_passed
    run = ex.run_functional_tests(hung).per_vlen[128]
    assert (run.passed, run.exit_code, run.output_tail) == (False, None, "timeout after 1s")
    # Post-mortem copies are written for a run that ended, not for one killed.
    assert (tmp_path / "ran" / "stdout.txt").read_text() == "out\n"
    assert (tmp_path / "ran" / "stderr.txt").read_text() == "err\n"
    assert sorted(p.name for p in (tmp_path / "hung").iterdir()) == ["bin"]


def test_a_tool_that_cannot_start_is_a_configuration_error(tmp_path):
    case = make_case(tmp_path, TEST_HARNESS, BENCH_HARNESS)
    config = dataclasses.replace(
        _script_config(tmp_path / "no-cc"), runner=str(tmp_path / "no-runner")
    )
    ex = CommandExecutor(config, tmp_path / "work")
    with pytest.raises(ConfigurationError, match="^compiler not runnable: "):
        ex.compile_candidate(GOOD_CANDIDATE, case, "functional")
    binary = _script(tmp_path / "bin_functional", "exit 0\n")
    with pytest.raises(ConfigurationError, match="^runner not runnable: "):
        ex.run_functional_tests(binary)


def test_adding_a_vlen_only_tightens_all_passed():
    runs_two = {128: VlenRun(True, 0, ""), 256: VlenRun(True, 0, "")}
    ok = TestResult(per_vlen=runs_two)
    assert ok.all_passed
    runs_three = dict(runs_two)
    runs_three[512] = VlenRun(False, 1, "tail bug")
    worse = TestResult(per_vlen=runs_three)
    assert not worse.all_passed


# --- perf runs alone -----------------------------------------------------------

def test_gate_admits_writers_alone_and_before_new_readers():
    gate = executors._Gate()
    inside = {"readers": 0, "writers": 0}
    count = threading.Lock()
    broken = []
    writers_done = threading.Event()

    def enter(side, kind):
        with side():
            with count:
                inside[kind] += 1
                if inside["writers"] > 1 or (inside["writers"] and inside["readers"]):
                    broken.append(dict(inside))
            time.sleep(1e-4)  # stay inside while other threads try to enter
            with count:
                inside[kind] -= 1

    def read():  # readers keep the gate busy until every writer is through
        while not writers_done.is_set():
            enter(gate.shared, "readers")

    def write():
        for _ in range(100):
            enter(gate.exclusive, "writers")

    readers = [threading.Thread(target=read) for _ in range(6)]
    writers = [threading.Thread(target=write) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=20)
    finally:
        writers_done.set()
        sys.setswitchinterval(interval)
        for t in readers:
            t.join(timeout=20)
    # A writer waiting for the gate holds off new readers, so writers finish
    # even though the readers never stop on their own.
    assert not any(t.is_alive() for t in readers + writers)
    assert broken == []


def test_gate_recovers_from_a_writer_interrupted_while_it_waits(monkeypatch):
    gate = executors._Gate()
    held, release, entered = threading.Event(), threading.Event(), threading.Event()

    def hold():
        with gate.shared():
            held.set()
            release.wait(20)

    def read():
        with gate.shared():
            entered.set()

    def interrupted(predicate, timeout=None):
        raise KeyboardInterrupt

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(20)
        with monkeypatch.context() as m, pytest.raises(KeyboardInterrupt):
            m.setattr(gate._cond, "wait_for", interrupted)
            with gate.exclusive():
                pass
        assert gate._writers == 0
        # A waiting writer would hold off this reader; the interrupted one does not.
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=5)
        assert entered.is_set()
    finally:
        release.set()
        holder.join(timeout=20)


def test_each_step_is_built_once_however_many_threads_ask(tmp_path):
    ex = CommandExecutor(_script_config(), tmp_path / "work")
    built = []

    def fake_cc(*args):
        output = Path(args[args.index("-o") + 1])
        built.append(output)
        time.sleep(1e-4)  # stay inside while other threads ask
        output.write_text("")
        return True, ""

    ex._cc = fake_cc
    objects = [ex._candidate_step("c", f"int f{i};\n") for i in range(12)]
    links = [ex._link_step(a, b) for a in objects[:4] for b in objects[4:]]
    ex._queue(*objects[::2], *links[::3])

    def ask(seed):
        steps = objects + links
        random.Random(seed).shuffle(steps)
        return {step.key: ex._object(step)[0] for step in steps}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            answers = list(pool.map(ask, range(6), timeout=60))
    finally:
        sys.setswitchinterval(interval)
        ex.drain()
    assert len(built) == len(set(built)) == len(objects) + len(links)
    assert all(answer == answers[0] for answer in answers)
    assert None not in answers[0].values()


def _busy_corpus(tmp_path):
    """Two cases whose fake builds and tests mark a shared busy directory
    while they run, and whose perf binary fails if it sees a mark."""
    busy = tmp_path / "busy"
    busy.mkdir()
    # `-c SRC -o OBJ` keeps the '#sh ' lines of SRC; a link joins the objects
    # into one shell script. '#cc-error' in a source fails its compile.
    cc = _script(tmp_path / "cc", f"""\
mark="{busy}/cc.$$"
touch "$mark"
sleep 0.03
out=; srcs=; compile=
while [ $# -gt 0 ]; do
    case "$1" in
        -c) compile=1 ;;
        -o) out=$2; shift ;;
        -*) ;;
        *) srcs="$srcs $1" ;;
    esac
    shift
done
status=0
if grep -q '^#cc-error' $srcs; then
    echo "error: scripted compile failure" >&2
    status=1
elif [ -n "$compile" ]; then
    cat $srcs | sed -n 's/^#sh //p' > "$out"
else
    {{ echo '#!/bin/sh'; cat $srcs; }} > "$out"
    chmod +x "$out"
fi
rm -f "$mark"
exit $status
""")
    runner = _script(tmp_path / "run.sh", 'shift 2\nexec "$@"\n')  # drops "-cpu ..."
    test_c = (f'#sh mark="{busy}/test.$$"; touch "$mark"; sleep 0.02; rm -f "$mark"\n'
              "#sh exit 0\n")
    bench_c = (f'#sh if [ -n "$(ls {busy})" ]; then echo overlap >&2; exit 3; fi\n'
               "#sh sleep 0.01\n"
               f'#sh if [ -n "$(ls {busy})" ]; then echo overlap >&2; exit 3; fi\n'
               "#sh echo 1000\n")
    corpus = tmp_path / "corpus"
    for case_id in ("a", "b"):
        d = corpus / case_id
        d.mkdir(parents=True)
        (d / "manifest.txt").write_text(
            f'id = "{case_id}"\narch = "neon"\nsource = "neon.c"\ntest = "test.c"\n'
            f'bench = "bench.c"\nnative = "native.c"\nsignature = "int {case_id}(int x)"\n'
        )
        (d / "neon.c").write_text(f"int {case_id}(int x) {{ return vaddq_s32(x); }}\n")
        (d / "native.c").write_text(f"int {case_id}(int x) {{ return x; }}\n")
        (d / "test.c").write_text(test_c)
        (d / "bench.c").write_text(bench_c)
    return corpus, cc, runner


def test_perf_runs_never_overlap_a_compile_or_a_test(tmp_path):
    from vecport.cli import main

    corpus, cc, runner = _busy_corpus(tmp_path)

    def reply(code):
        return f"```c\n{code}\n```"

    # "a" repairs once and "b" optimizes twice, so the two cases fall out of step.
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({
        "a": [reply("#cc-error"), reply("int a(int x) { return x; }"),
              reply("int a(int x) { return x + 0; }"), reply("int a(int x) { return x - 0; }")],
        "b": [reply("int b(int x) { return x; }"), reply("int b(int x) { return 0 + x; }"),
              reply("int b(int x) { return x * 1; }")],
    }))
    out = tmp_path / "out"
    assert main(["translate", "--corpus", str(corpus), "--replay", str(replay),
                 "--cc", str(cc), "--runner", str(runner), "--vlens", "128,256",
                 "--translate-max", "2", "--optimize-max", "2", "--parallelism", "2",
                 "--out", str(out)]) == 0
    measured = {}
    for case_id in ("a", "b"):
        outcome = json.loads((out / "outcomes" / f"{case_id}.json").read_text())
        # a variant without perf data would leave a note naming the perf error
        assert outcome["passed"] and outcome["notes"] == [], outcome["notes"]
        measured[case_id] = outcome["best_variant"]["perf"]["speedup"]
    assert measured == {"a": "1", "b": "1"}
