import json
import os
import shutil
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vecport.cli as cli
from conftest import DEEP_NESTING
from vecport.cli import RunConfig, load_config_file, main, resolve_config
from vecport.corpus import bundled_corpus_dir
from vecport.executors import MockExecutor

GOOD_RVV = (bundled_corpus_dir() / "vec_add" / "native.c").read_text()
MULH_RVV = (bundled_corpus_dir() / "mulh_s16" / "native.c").read_text()


def fenced(code: str) -> str:
    return f"```c\n{code}```"


def write_replay(tmp_path, mapping) -> Path:
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(mapping))
    return path


def run_translate(tmp_path, out_name="out", extra=(), cases=("vec_add",)):
    replay = write_replay(
        tmp_path,
        {
            "vec_add": [fenced(GOOD_RVV), fenced(GOOD_RVV)],
            "mulh_s16": [fenced(MULH_RVV), fenced(MULH_RVV)],
        },
    )
    out = tmp_path / out_name
    argv = ["translate", "--replay", str(replay), "--no-exec", "--optimize-max", "1",
            "--out", str(out)]
    for c in cases:
        argv += ["--case", c]
    argv += list(extra)
    return main(argv), out


def attempt_log(out: Path, case_id: str) -> list[dict]:
    """The case's attempt records, in order."""
    return [json.loads(line)
            for line in (out / "attempts" / f"{case_id}.ndjson").read_text().splitlines()]


def _strip_volatile(out: Path, case_id: str) -> tuple[dict, list[dict]]:
    """The case's outcome and attempt log, with the timestamps removed."""
    attempts = attempt_log(out, case_id)
    for attempt in attempts:
        attempt["timestamp"] = None
    return json.loads((out / "outcomes" / f"{case_id}.json").read_text()), attempts


# --- translate ------------------------------------------------------------

def test_translate_bundled_case_is_deterministic(tmp_path, capsys):
    rc1, out1 = run_translate(tmp_path, "out1")
    rc2, out2 = run_translate(tmp_path, "out2")
    assert rc1 == rc2 == 0
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert _strip_volatile(out1, "vec_add") == _strip_volatile(out2, "vec_add")


def test_translate_report_golden(tmp_path, capsys):
    rc, out = run_translate(tmp_path, cases=("vec_add", "mulh_s16"))
    assert rc == 0
    expected = """\
case                     passed  attempts  speedup
--------------------------------------------------
mulh_s16                 yes            1     1.00
vec_add                  yes            1     1.00
--------------------------------------------------
cases: 2   passed: 2   pass rate: 100.0%
avg iterations (passing): 1.0   efficiency score: 2.0 (budget 10, failed cases included)
speedup buckets: <0.5: 0  0.5-0.9: 0  0.9-1.1: 2  1.1-2.0: 0  >2.0: 0
"""
    assert (out / "report.txt").read_text() == expected


def test_translate_writes_attempt_logs(tmp_path):
    rc, out = run_translate(tmp_path)
    assert rc == 0
    log = out / "attempts" / "vec_add.ndjson"
    assert log.is_file()
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert records[0]["phase"] == "translation"


def test_translate_unknown_case_lists_valid_ids(tmp_path, capsys):
    rc, _ = run_translate(tmp_path, cases=("no_such_case",))
    assert rc == 1
    err = capsys.readouterr().err
    assert "no_such_case" in err
    assert "vec_add" in err  # the valid ids are listed


def test_translate_requires_exactly_one_client(tmp_path, capsys):
    replay = write_replay(tmp_path, {"vec_add": []})
    rc = main([
        "translate", "--replay", str(replay), "--endpoint", "http://x", "--no-exec",
    ])
    assert rc == 1
    assert "not both" in capsys.readouterr().err

    rc = main(["translate", "--no-exec"])
    assert rc == 1


def test_translate_parallelism_matches_serial(tmp_path):
    rc1, out1 = run_translate(
        tmp_path, "serial", cases=("vec_add", "mulh_s16"), extra=("--parallelism", "1")
    )
    rc2, out2 = run_translate(
        tmp_path, "parallel", cases=("vec_add", "mulh_s16"), extra=("--parallelism", "2")
    )
    assert rc1 == rc2 == 0
    for case_id in ("vec_add", "mulh_s16"):
        assert _strip_volatile(out1, case_id) == _strip_volatile(out2, case_id)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_translate_failed_case_is_a_result_not_an_error(tmp_path, capsys):
    replay = write_replay(tmp_path, {"vec_add": ["no code here at all"] * 3})
    out = tmp_path / "out"
    rc = main([
        "translate", "--replay", str(replay), "--no-exec", "--case", "vec_add",
        "--translate-max", "3", "--optimize-max", "1", "--out", str(out),
    ])
    assert rc == 0
    outcome = json.loads((out / "outcomes" / "vec_add.json").read_text())
    assert outcome["passed"] is False
    assert outcome["attempts_used"] == 3


def test_lone_surrogate_in_a_reply_is_a_recorded_attempt(tmp_path, capsys):
    replay = write_replay(tmp_path, {"vec_add": [fenced("/* \ud800 */\n" + GOOD_RVV)]})
    out = tmp_path / "out"
    rc = main([
        "translate", "--replay", str(replay), "--no-exec", "--case", "vec_add",
        "--translate-max", "1", "--optimize-max", "1", "--out", str(out),
    ])
    assert rc == 0
    assert attempt_log(out, "vec_add")[0]["code"].startswith("/* \ufffd */\n")


@pytest.mark.parametrize("first_reply, tools, expected", [
    ("", ["--no-exec"], {"note": "no code emitted"}),
    ("  \n", ["--no-exec"], {"note": "no code emitted"}),
    ("```c\n```", ["--no-exec"], {"code": "", "compile_ok": True}),
    (fenced(GOOD_RVV), ["--cc", "/bin/false", "--runner", "/bin/true"],
     {"compile_ok": False, "compile_diagnostics": ""}),
], ids=["blank_reply", "whitespace_reply", "empty_code_block", "silent_compiler"])
def test_empty_reply_or_silent_compiler_is_a_failed_attempt(tmp_path, capsys,
                                                            first_reply, tools, expected):
    replay = write_replay(tmp_path, {"vec_add": [first_reply] + [fenced(GOOD_RVV)] * 2})
    out = tmp_path / "out"
    assert main(["translate", "--replay", str(replay), "--case", "vec_add",
                 "--translate-max", "2", "--optimize-max", "1", "--out", str(out), *tools]) == 0
    assert (out / "report.json").is_file()
    first = attempt_log(out, "vec_add")[0]
    assert {key: first[key] for key in expected} == expected


def test_translate_zero_budget_is_a_usage_error(tmp_path, capsys):
    replay = write_replay(tmp_path, {"vec_add": []})
    rc = main([
        "translate", "--replay", str(replay), "--no-exec",
        "--optimize-max", "0",
    ])
    assert rc == 1
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("corpus", ["missing", "empty"])
def test_translate_corpus_problem_is_a_usage_error(tmp_path, capsys, corpus):
    corpus_dir = tmp_path / "corpus"
    if corpus == "empty":
        corpus_dir.mkdir()
    replay = write_replay(tmp_path, {"vec_add": []})
    rc = main(["translate", "--replay", str(replay), "--no-exec", "--corpus", str(corpus_dir),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    problem = "corpus directory not found:" if corpus == "missing" else "no cases found under"
    assert capsys.readouterr().err == f"error: {problem} {corpus_dir}\n"


def test_list_form_replay_runs_serially_under_parallelism(tmp_path, capsys):
    replay = tmp_path / "list.json"
    replay.write_text(json.dumps([fenced(MULH_RVV), "no code", fenced(GOOD_RVV), fenced(GOOD_RVV)]))
    runs = {}
    for parallelism in ("1", "2"):
        out = tmp_path / f"p{parallelism}"
        assert main(["translate", "--replay", str(replay), "--no-exec", "--case", "vec_add",
                     "--case", "mulh_s16", "--optimize-max", "1",
                     "--parallelism", parallelism, "--out", str(out)]) == 0
        runs[parallelism] = capsys.readouterr(), (out / "report.json").read_bytes()
    (serial, serial_json), (forced, forced_json) = runs["1"], runs["2"]
    assert serial.err == ""
    assert forced.err == ("warning: list-form replay script is one shared sequence; "
                          "forcing parallelism 1 for determinism\n")
    assert forced.out == serial.out
    assert forced_json == serial_json


def test_mock_run_applies_the_vlen_rule_of_a_real_run(tmp_path, capsys):
    replay = write_replay(tmp_path, {"vec_add": [fenced(GOOD_RVV)]})
    argv = ["translate", "--replay", str(replay), "--case", "vec_add",
            "--out", str(tmp_path / "out")]
    errors = []
    for executor in (["--no-exec"], []):
        assert main(argv + executor + ["--vlens", "100"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == ["error: VLEN 100 invalid: must be a power of two in [32, 65536]\n"] * 2
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text('vlens = ""\n')
    assert main(argv + ["--no-exec", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == "error: at least one VLEN must be configured\n"


@pytest.mark.parametrize("vlens", ["128,", "128,,256", ""])
def test_vlens_flag_and_config_key_read_the_same(tmp_path, capsys, vlens):
    replay = write_replay(tmp_path, {"vec_add": [fenced(GOOD_RVV)]})
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text(f'vlens = "{vlens}"\n')
    results = []
    for name, extra in (("flag", ["--vlens", vlens]), ("config", ["--config", str(cfg_file)])):
        out = tmp_path / name
        rc = main(["translate", "--replay", str(replay), "--no-exec", "--case", "vec_add",
                   "--out", str(out), *extra])
        report = (out / "report.txt").read_text() if rc == 0 else None
        results.append((rc, capsys.readouterr().err, report))
    assert results[0] == results[1]
    assert results[0][0] == (1 if vlens == "" else 0)


def test_translate_scratch_cleaned_but_logs_kept(tmp_path):
    rc, out = run_translate(tmp_path)
    assert rc == 0
    assert (out / "attempts" / "vec_add.ndjson").is_file()
    assert not (out / "work").exists()


def test_no_exec_run_writes_only_attempt_logs(tmp_path):
    rc, out = run_translate(tmp_path, cases=("vec_add", "mulh_s16"), extra=("--keep-scratch",))
    assert rc == 0
    assert not (out / "work").exists()
    attempts = out / "attempts"
    assert sorted(p.relative_to(attempts).as_posix() for p in attempts.rglob("*")) == [
        "mulh_s16.ndjson", "vec_add.ndjson",
    ]


@pytest.fixture
def cleanups(monkeypatch):
    """Records each MockExecutor.cleanup call, then runs the real one."""
    calls = []
    real = MockExecutor.cleanup

    def counted(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(MockExecutor, "cleanup", counted)
    return calls


def native_reply(case_id: str) -> str:
    return fenced((bundled_corpus_dir() / case_id / "native.c").read_text())


def test_aborted_run_writes_and_reports_the_finished_cases(tmp_path, capsys, cleanups):
    # Cases run in id order; max_s16, the third, has no replies and aborts the run.
    replay = write_replay(
        tmp_path, {c: [native_reply(c)] for c in ("deinterleave_rgb", "dot_f32")}
    )
    argv = ["translate", "--replay", str(replay), "--no-exec", "--optimize-max", "1"]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert "no responses for case 'max_s16'" in capsys.readouterr().err
    assert sorted(p.name for p in (out / "outcomes").iterdir()) == [
        "deinterleave_rgb.json", "dot_f32.json",
    ]
    assert not (out / "attempts" / "max_s16.ndjson").exists()
    assert len(cleanups) == 1
    # The reports score exactly the two finished cases, as a run of only them does.
    two = tmp_path / "two"
    assert main(argv + ["--case", "deinterleave_rgb", "--case", "dot_f32",
                        "--out", str(two)]) == 0
    for name in ("report.txt", "report.json"):
        assert (out / name).read_bytes() == (two / name).read_bytes()
    assert "cases: 2   passed: 2" in (out / "report.txt").read_text()
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert capsys.readouterr().out == (out / "report.txt").read_text() + "\n"


def test_parallel_abort_writes_the_cases_in_flight(tmp_path, capsys):
    # deinterleave_rgb, the first case, aborts the run while a second worker
    # may hold another case; every case that started must finish and be written.
    replay = write_replay(tmp_path, {c: [native_reply(c)] for c in ("dot_f32", "max_s16")})
    out = tmp_path / "out"
    assert main(["translate", "--replay", str(replay), "--no-exec", "--optimize-max", "1",
                 "--parallelism", "2", "--out", str(out)]) == 1
    assert "no responses for case 'deinterleave_rgb'" in capsys.readouterr().err
    started = sorted(p.stem for p in (out / "attempts").glob("*.ndjson"))
    written = sorted(p.stem for p in (out / "outcomes").iterdir())
    assert written == started
    assert "deinterleave_rgb" not in written
    if written:
        assert json.loads((out / "report.json").read_text())["n_total"] == len(written)


@pytest.mark.parametrize("keep", [False, True], ids=["cleaned", "kept"])
def test_interrupted_run_reports_the_finished_cases(tmp_path, capsys, monkeypatch,
                                                    cleanups, keep):
    real_run_task = cli.run_task
    started = []

    def interrupt_second_case(case, *args):
        started.append(case.case_id)
        if len(started) == 2:
            raise KeyboardInterrupt
        return real_run_task(case, *args)

    monkeypatch.setattr(cli, "run_task", interrupt_second_case)
    rc, out = run_translate(tmp_path, cases=("vec_add", "mulh_s16"),
                            extra=("--keep-scratch",) * keep)
    assert rc == 130
    assert started == ["mulh_s16", "vec_add"]
    assert "interrupted" in capsys.readouterr().err
    assert [p.name for p in (out / "outcomes").iterdir()] == ["mulh_s16.json"]
    report = json.loads((out / "report.json").read_text())
    assert (report["n_total"], list(report["speedups"])) == (1, ["mulh_s16"])
    assert "cases: 1   passed: 1" in (out / "report.txt").read_text()
    assert len(cleanups) == (0 if keep else 1)


HOST_GCC = shutil.which("gcc")


def write_plain_c_case(corpus: Path) -> None:
    """A one-function case in plain C that host gcc builds and runs."""
    d = corpus / "ident"
    d.mkdir(parents=True)
    (d / "manifest.txt").write_text(
        'id = "ident"\narch = "neon"\nsource = "neon.c"\ntest = "test.c"\n'
        'bench = "bench.c"\nnative = "native.c"\nsignature = "int ident(int x)"\n'
    )
    (d / "neon.c").write_text("int ident(int x) { return x; }\n")
    (d / "native.c").write_text("int ident(int x) { return x; }\n")
    (d / "test.c").write_text(
        "int ident(int x);\nint main(void) { return ident(41) != 41; }\n"
    )
    (d / "bench.c").write_text(
        '#include <stdio.h>\nint ident(int x);\n'
        'int main(void) { printf("%d\\n", 1000 + ident(0)); return 0; }\n'
    )


@pytest.mark.skipif(HOST_GCC is None, reason="host gcc not available")
@pytest.mark.parametrize("keep", [True, False], ids=["kept", "removed"])
def test_keep_scratch_decides_what_the_real_executor_leaves(tmp_path, keep):
    corpus = tmp_path / "corpus"
    write_plain_c_case(corpus)
    # the default runner template passes "-cpu ..." before the binary
    runner = tmp_path / "run.sh"
    runner.write_text('#!/bin/sh\nshift 2\nexec "$@"\n')
    runner.chmod(0o755)
    replay = write_replay(tmp_path, {"ident": [fenced("int ident(int x) { return x; }\n")]})
    out = tmp_path / "out"
    argv = ["translate", "--corpus", str(corpus), "--replay", str(replay),
            "--cc", HOST_GCC, "--flags=-O1", "--runner", str(runner), "--vlens", "128",
            "--translate-max", "1", "--optimize-max", "1", "--out", str(out)]
    assert main(argv + ["--keep-scratch"] * keep) == 0
    assert json.loads((out / "outcomes" / "ident.json").read_text())["passed"]
    assert (out / "attempts" / "ident.ndjson").is_file()
    if keep:  # per-attempt artifacts survive for post-mortem
        left = sorted(p.name for p in (out / "work" / "ident").iterdir())
        assert {"obj", "bin", "native", "t1", "t0-perf"} <= set(left)
        assert (out / "work" / "ident" / "t1" / "candidate.c").is_file()
    else:
        assert not (out / "work").exists()


@pytest.mark.skipif(HOST_GCC is None, reason="host gcc not available")
@pytest.mark.parametrize("keep", [True, False], ids=["kept", "removed"])
def test_no_build_or_build_thread_outlives_the_run(tmp_path, keep):
    corpus = tmp_path / "corpus"
    write_plain_c_case(corpus)
    pids = tmp_path / "cc.pids"
    cc = tmp_path / "slow-cc"
    cc.write_text(f'#!/bin/sh\necho $$ >> "{pids}"\nsleep 0.3\nexec "{HOST_GCC}" "$@"\n')
    cc.chmod(0o755)
    runner = tmp_path / "run.sh"
    runner.write_text('#!/bin/sh\nshift 2\nexec "$@"\n')
    runner.chmod(0o755)
    # The only reply compiles but fails its test, so the perf harness, native
    # and perf-link builds queued ahead are never asked for.
    replay = write_replay(tmp_path, {"ident": [fenced("int ident(int x) { return x + 1; }\n")]})
    threads = threading.active_count()
    assert main(["translate", "--corpus", str(corpus), "--replay", str(replay),
                 "--cc", str(cc), "--flags=-O1", "--runner", str(runner), "--vlens", "128",
                 "--translate-max", "1", "--optimize-max", "1", "--out", str(tmp_path / "out")]
                + ["--keep-scratch"] * keep) == 0
    assert threading.active_count() == threads
    started = [int(pid) for pid in pids.read_text().split()]
    # test.c, bench.c, candidate.c and native.c; the candidate's functional
    # link; the native and the candidate perf links, both queued ahead.
    assert len(started) == 7
    for pid in started:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert not json.loads((tmp_path / "out" / "outcomes" / "ident.json").read_text())["passed"]


def test_bad_flag_value_is_a_usage_error():
    assert main(["translate", "--parallelism", "goose"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["--help"]) == 0


# --- analyze ----------------------------------------------------------------

def test_analyze_vec_add_native_golden(capsys):
    rc = main(["analyze", str(bundled_corpus_dir() / "vec_add" / "native.c"), "vec_add_s32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "peak vector register pressure: 6 of 32" in out
    assert "statement 4 (line 10)" in out
    assert "__riscv_vadd_vv_i32m2" in out
    assert "fits in the register file" in out


def test_analyze_scalar_file_reports_zero(tmp_path, capsys):
    f = tmp_path / "scalar.c"
    f.write_text("int sum(const int *p, int n) { int s = 0; while (n > 0) { s += p[n - 1]; n -= 1; } return s; }\n")
    rc = main(["analyze", str(f), "sum"])
    assert rc == 0
    assert "pressure: 0 of 32" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["analyze", "config", "manifest", "case_file", "replay"])
def test_non_utf8_input_file_is_a_clean_exit_1(tmp_path, capsys, target):
    corpus = tmp_path / "corpus"
    shutil.copytree(bundled_corpus_dir() / "vec_add", corpus / "vec_add")
    replay = write_replay(tmp_path, {"vec_add": [fenced(GOOD_RVV)]})
    config = tmp_path / "run.cfg"
    config.write_text('optimize_max = "1"\n')
    kernel = tmp_path / "kernel.c"
    kernel.write_text(GOOD_RVV)
    bad = {
        "analyze": kernel,
        "config": config,
        "manifest": corpus / "vec_add" / "manifest.txt",
        "case_file": corpus / "vec_add" / "native.c",
        "replay": replay,
    }[target]
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    if target == "analyze":
        argv = ["analyze", str(bad), "vec_add_s32"]
    else:
        argv = ["translate", "--no-exec", "--corpus", str(corpus), "--replay", str(replay),
                "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "can't decode byte 0xff" in err


def test_analyze_goto_file_names_the_line(tmp_path, capsys):
    f = tmp_path / "bad.c"
    f.write_text("void f(void) {\n    goto end;\nend:\n    return;\n}\n")
    rc = main(["analyze", str(f), "f"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "goto" in err
    assert "line 2" in err


def test_analyze_read_before_a_later_declaration_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "early.c"
    f.write_text("void f(size_t vl) { g(v); vint32m1_t v; }\n")
    assert main(["analyze", str(f), "f"]) == 1
    assert capsys.readouterr().err == (
        "parse error: vector value 'v' referenced before its declaration (line 1)\n")


@pytest.mark.parametrize("shape", DEEP_NESTING)
def test_nesting_too_deep_is_a_parse_error_not_a_crash(tmp_path, capsys, shape):
    f = tmp_path / "deep.c"
    f.write_text(f"void f(int n) {{ {DEEP_NESTING[shape](600)} }}\n")
    assert main(["analyze", str(f), "f"]) == 1
    assert capsys.readouterr().err == "parse error: nesting too deep\n"
    # In a candidate, it only costs the variant its pressure report.
    deep = GOOD_RVV.replace("        n -= vl;\n", f"        n -= vl;\n{DEEP_NESTING[shape](600)}\n")
    replay = write_replay(tmp_path, {"vec_add": [fenced(deep), fenced(deep)]})
    out = tmp_path / "out"
    assert main(["translate", "--replay", str(replay), "--no-exec", "--case", "vec_add",
                 "--optimize-max", "1", "--out", str(out)]) == 0
    outcome = json.loads((out / "outcomes" / "vec_add.json").read_text())
    assert outcome["passed"] is True
    assert outcome["best_variant"]["code"] == deep.rstrip("\n")
    assert outcome["best_variant"]["pressure"] is None


def test_analyze_dump_ir_flag(capsys):
    rc = main([
        "analyze", str(bundled_corpus_dir() / "vec_add" / "native.c"),
        "vec_add_s32", "--dump-ir",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "s0 [scalar_other] line 6: n > 0\n    use: -   def: -   next: s1\n" in out
    assert "use: va, vb   def: vc   next: s5" in out
    assert "next: s0\n" in out  # the back edge


def test_analyze_physical_mode(capsys):
    rc = main([
        "analyze", str(bundled_corpus_dir() / "vec_add" / "native.c"),
        "vec_add_s32", "--mode", "physical",
    ])
    assert rc == 0
    assert "6 of 32" in capsys.readouterr().out  # m2 values: same either way


# --- report -------------------------------------------------------------------

def test_report_recomputes_identical_numbers(tmp_path, capsys):
    rc, out = run_translate(tmp_path, cases=("vec_add", "mulh_s16"))
    capsys.readouterr()
    rc = main(["report", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.strip() == (out / "report.txt").read_text().strip()


def test_report_scores_with_the_runs_budget(tmp_path, capsys):
    # Solved on the second try under budget 3: efficiency 2/3, not 9/10.
    replay = write_replay(
        tmp_path, {"vec_add": ["no code in this reply", fenced(GOOD_RVV), fenced(GOOD_RVV)]}
    )
    out = tmp_path / "out"
    rc = main(["translate", "--replay", str(replay), "--no-exec", "--case", "vec_add",
               "--translate-max", "3", "--optimize-max", "1", "--out", str(out)])
    assert rc == 0
    report_txt = (out / "report.txt").read_text()
    assert "efficiency score: 0.7 (budget 3, failed cases included)" in report_txt
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert capsys.readouterr().out.strip() == report_txt.strip()
    # An explicit flag still overrides what the run used.
    assert main(["report", str(out), "--up-limit", "10"]) == 0
    assert "efficiency score: 0.9 (budget 10" in capsys.readouterr().out


@pytest.mark.parametrize("source, budget", [
    ("flag", "0"), ("flag", "-1"), ("flag", "1"), ("flag", "2"), ("report_json", 2),
])
def test_report_budget_problem_is_a_usage_error(tmp_path, capsys, source, budget):
    # vec_add passes on its third attempt, so any budget below 3 cannot score it.
    replay = write_replay(tmp_path, {"vec_add": ["no code"] * 2 + [fenced(GOOD_RVV)] * 2})
    out = tmp_path / "out"
    assert main(["translate", "--replay", str(replay), "--no-exec", "--case", "vec_add",
                 "--translate-max", "3", "--optimize-max", "1", "--out", str(out)]) == 0
    argv = ["report", str(out)]
    if source == "flag":
        argv += ["--up-limit", budget]
    else:
        data = json.loads((out / "report.json").read_text())
        data["up_limit"] = budget
        (out / "report.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if int(budget) < 1:
        assert captured.err == f"error: --up-limit must be at least 1, not {budget}\n"
    else:
        assert captured.err == (f"error: vec_add passed after 3 attempts, "
                                f"more than the budget {budget}\n")


def test_report_empty_dir_is_usage_error(tmp_path, capsys):
    rc = main(["report", str(tmp_path)])
    assert rc == 1
    assert "no outcomes" in capsys.readouterr().err


def test_report_skips_corrupt_outcomes_with_warning(tmp_path, capsys):
    rc, out = run_translate(tmp_path)
    (out / "outcomes" / "zz_corrupt.json").write_text("{ not json")
    capsys.readouterr()
    rc = main(["report", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "skipping corrupt outcome" in captured.err
    assert "vec_add" in captured.out


def test_report_skips_outcomes_of_the_wrong_shape(tmp_path, capsys):
    rc, out = run_translate(tmp_path)
    bad = {
        "za_list.json": "[]",
        "zb_attempts_str.json": '{"case_id": "zz", "passed": true, "attempts_used": "2"}',
        "zc_attempts_zero.json": '{"case_id": "zz", "passed": true, "attempts_used": 0}',
    }
    for name, text in bad.items():
        (out / "outcomes" / name).write_text(text)
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    captured = capsys.readouterr()
    for name in bad:
        assert f"warning: skipping corrupt outcome {name}: " in captured.err
    assert captured.out == (out / "report.txt").read_text() + "\n"


DAMAGED_FIELDS = {
    "up_limit_bool": ("up_limit", True),
    "up_limit_str": ("up_limit", "10"),
    "include_failed_str": ("include_failed", "no"),
}


@pytest.mark.parametrize("damage", ["missing", "not_json", "no_format", "list", *DAMAGED_FIELDS])
def test_report_falls_back_when_report_json_is_unreadable(tmp_path, capsys, damage):
    replay = write_replay(
        tmp_path, {"vec_add": ["no code"] * 3, "mulh_s16": [fenced(MULH_RVV)] * 2}
    )
    out = tmp_path / "out"
    assert main(["translate", "--replay", str(replay), "--no-exec", "--case", "vec_add",
                 "--case", "mulh_s16", "--translate-max", "3", "--optimize-max", "1",
                 "--exclude-failed", "--out", str(out)]) == 0
    assert "(budget 3, failed cases excluded)" in (out / "report.txt").read_text()
    report_json = out / "report.json"
    if damage == "missing":
        report_json.unlink()
    elif damage == "not_json":
        report_json.write_text("{ not json")
    elif damage == "no_format":
        data = json.loads(report_json.read_text())
        del data["format"]
        report_json.write_text(json.dumps(data))
    elif damage in DAMAGED_FIELDS:
        name, value = DAMAGED_FIELDS[damage]
        data = json.loads(report_json.read_text())
        data[name] = value
        report_json.write_text(json.dumps(data))
    else:
        report_json.write_text("[]")
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: unreadable report.json (")
    assert captured.err.endswith("); scoring with budget 10, failed cases included\n")
    assert "vec_add                  no             3        -" in captured.out
    assert "(budget 10, failed cases included)" in captured.out


def test_report_reads_only_the_scoring_fields_of_report_json(tmp_path, capsys):
    rc, out = run_translate(tmp_path, cases=("vec_add", "mulh_s16"))
    assert rc == 0
    data = json.loads((out / "report.json").read_text())
    data["speedups"] = []
    (out / "report.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (out / "report.txt").read_text() + "\n"


# --- config handling ---------------------------------------------------------

def test_config_file_values_used_and_flags_override(tmp_path):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text(
        'temperature = "0.7"\n'
        'translate_max = "5"\n'
        'pressure_mode = "physical"\n'
    )
    values = load_config_file(cfg_file)
    cfg = resolve_config({"temperature": 0.1}, values)
    assert cfg.temperature == 0.1  # flag wins
    assert cfg.translate_max == 5  # file wins over default
    assert cfg.pressure_mode == "physical"
    assert cfg.optimize_max == 10  # default


def test_config_file_rejects_unknown_keys(tmp_path):
    from vecport.errors import UsageError

    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text('tempurature = "0.7"\n')
    with pytest.raises(UsageError):
        load_config_file(cfg_file)


def test_config_file_problems_are_reported_in_file_order(tmp_path, capsys):
    from vecport.errors import UsageError

    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text('# budgets\n\ntempurature = "0.7"\nnot a pair\n')
    with pytest.raises(UsageError, match="unknown config key 'tempurature'"):
        load_config_file(cfg_file)
    cfg_file.write_text('# budgets\n\ntemperature = "0.7"\nnot a pair\n')
    with pytest.raises(UsageError, match='line 4: expected key = "value"'):
        load_config_file(cfg_file)
    assert main(["translate", "--no-exec", "--config", str(cfg_file)]) == 1
    assert 'line 4: expected key = "value"' in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("temperature", "hot"),
    ("pressure_mode", "phys"),
    ("no_exec", "on"),
    ("include_failed", "maybe"),
], ids=["temperature", "pressure_mode", "no_exec", "include_failed"])
def test_config_file_bad_value_is_a_usage_error(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text(f'{key} = "{value}"\n')
    assert main(["translate", "--no-exec", "--config", str(cfg_file)]) == 1
    assert f"bad value for {key}" in capsys.readouterr().err


def test_config_file_booleans_read_false_in_any_case(tmp_path):
    cfg_file = tmp_path / "run.conf"
    cfg_file.write_text('include_failed = "0"\nno_exec = "No"\nkeep_scratch = "FALSE"\n')
    assert load_config_file(cfg_file) == {
        "include_failed": False, "no_exec": False, "keep_scratch": False,
    }


_TRISTATE_FIELDS = [
    ("temperature", 0.5, 0.9),
    ("translate_max", 3, 7),
    ("optimize_max", 2, 8),
    ("pressure_mode", "physical", "literal"),
    ("parallelism", 2, 4),
    ("out", "a", "b"),
    ("include_failed", False, True),
    ("model", "m1", "m2"),
    ("cc", "gcc-a", "gcc-b"),
    ("flags", "-O2", "-O3"),
    ("runner", "r1", "r2"),
    ("corpus", "c1", "c2"),
    ("replay", "f1", "f2"),
    ("endpoint", "e1", "e2"),
]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, len(_TRISTATE_FIELDS) - 1),
    st.booleans(),
    st.booleans(),
)
def test_config_precedence_property(field_index, set_flag, set_file):
    name, flag_val, file_val = _TRISTATE_FIELDS[field_index]
    flag_values = {name: flag_val} if set_flag else {}
    file_values = {name: file_val} if set_file else {}
    cfg = resolve_config(flag_values, file_values)
    got = getattr(cfg, name)
    if set_flag:
        assert got == flag_val
    elif set_file:
        assert got == file_val
    else:
        assert got == getattr(RunConfig(), name)
