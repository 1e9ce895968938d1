"""External toolchain drivers: cross-compile, emulated functional tests across
vector lengths, and benchmark runs.

The compiler is driven as ``cc flags ...`` and the emulator through a command
template, so a different compiler, emulator, or a real board behind an ssh
wrapper slots in without code changes. Candidates never touch the case
directory; each attempt of ``CommandExecutor`` writes its source and compile
diagnostics to a scratch directory of its own, ``work/<case>/<tag>/``, and
``cleanup`` removes ``work/`` whole. ``MockExecutor`` works in memory and
creates no scratch.

Nothing that cannot change within a case is rebuilt or re-measured. Each
build is a step kept under a key (Mokhov, Mitchell and Peyton Jones, "Build
Systems a la Carte", ICFP 2018): each harness and each distinct candidate
source is compiled to an object once per case (``work/<case>/obj/``), and
each (harness, candidate) pair is linked once, into a directory of its own
(``work/<case>/bin/<harness>-<sha256>/``) that also keeps the output of the
last run of that binary. One map holds each step's ``Future``: a finished
one that holds an artifact is the kept build, and a failed one is dropped.
Builds that can start before they are asked for are queued on the
executor's one background thread: the two harness objects when a case first
compiles, the native reference's object (from its own copy,
``work/<case>/native/native.c``) and its perf binary right after that first
candidate compile, and the perf binary of each candidate that compiles for
the functional harness. So they are built even when nothing asks for them.
A queued step that has not started when it is asked for is built by its
asker, and a candidate that fails to compile returns without waiting for any
of them. The native reference's median-of-``PERF_RUNS`` cost is measured on
the first ``run_perf`` of a case and reused for every later variant; each
variant's own cost is always a fresh median.

Perf runs have the executor to themselves: every compiler and functional-test
subprocess holds the shared side of a writer-preferring reader-writer gate,
and each median-of-``PERF_RUNS`` loop holds its exclusive side, so under
parallelism no compile or test of another case runs beside a timed run.

Functional pass/fail is the exit-code contract (0 = pass); benchmark cost is
the final stdout line, a bare integer nanosecond count. Perf always runs both
binaries on the same runner at the largest configured VLEN, so speedups are
comparative even under emulation, never absolute hardware claims. Tool output
is decoded leniently: bytes that are not UTF-8 become U+FFFD, never an error.
"""

from __future__ import annotations

import hashlib
import re
import shlex
import shutil
import statistics
import subprocess
import threading
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import AbstractContextManager, closing, contextmanager, nullcontext, suppress
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path

from .corpus import ValidatedCase
from .errors import ConfigurationError, PerfError

DEFAULT_CC = "riscv64-linux-gnu-gcc"
DEFAULT_FLAGS = "-march=rv64gcv -O3"
DEFAULT_RUNNER = "qemu-riscv64"
DEFAULT_RUNNER_TEMPLATE = (
    "{runner} -cpu rv64,v=true,vlen={vlen},elen=64,vext_spec=v1.0 {binary}"
)
OUTPUT_TAIL_BYTES = 4096
PERF_RUNS = 5  # each perf cost is the median of this many runs
_COST_RE = re.compile(r"^[0-9]+$")


def validate_vlens(vlens: tuple[int, ...]) -> None:
    """The VLEN rule both executors apply: at least one, each a power of two in [32, 65536]."""
    if not vlens:
        raise ConfigurationError("at least one VLEN must be configured")
    for v in vlens:
        if v < 32 or v > 65536 or v & (v - 1):
            raise ConfigurationError(
                f"VLEN {v} invalid: must be a power of two in [32, 65536]"
            )


@dataclass
class ToolchainConfig:
    cc: str = DEFAULT_CC
    flags: str = DEFAULT_FLAGS
    runner: str = DEFAULT_RUNNER
    runner_cmd_template: str = DEFAULT_RUNNER_TEMPLATE
    vlens: tuple[int, ...] = (128, 256)
    compile_timeout_s: int = 120
    run_timeout_s: int = 60

    def __post_init__(self):
        validate_vlens(self.vlens)


@dataclass
class CompileResult:
    success: bool
    diagnostics: str
    artifact_path: Path | None = None


@dataclass
class VlenRun:
    passed: bool
    exit_code: int | None
    output_tail: str


@dataclass
class TestResult:
    __test__ = False  # domain type, not a pytest suite

    per_vlen: dict[int, VlenRun]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.per_vlen.values())

    def describe(self) -> str:
        """Report suitable for a repair prompt; names every VLEN tried."""
        lines = ["functional test results:"]
        for vlen in sorted(self.per_vlen):
            run = self.per_vlen[vlen]
            if run.passed:
                lines.append(f"  VLEN={vlen}: PASS")
            else:
                code = "timeout" if run.exit_code is None else f"exit code {run.exit_code}"
                lines.append(f"  VLEN={vlen}: FAIL ({code})")
        for vlen in sorted(self.per_vlen):
            run = self.per_vlen[vlen]
            if not run.passed and run.output_tail.strip():
                lines.append(f"--- output tail (VLEN={vlen}) ---")
                lines.append(run.output_tail.rstrip())
        return "\n".join(lines)


@dataclass
class PerfResult:
    translated_cost_ns: int
    native_cost_ns: int

    @cached_property
    def speedup(self) -> Fraction:
        return Fraction(self.native_cost_ns, self.translated_cost_ns)

    def to_dict(self) -> dict:
        return {
            "translated_cost_ns": self.translated_cost_ns,
            "native_cost_ns": self.native_cost_ns,
            "speedup": str(self.speedup),
            "runs": PERF_RUNS,
        }


def _tail(text: str, limit: int = OUTPUT_TAIL_BYTES) -> str:
    return text[-limit:] if len(text) > limit else text


def _cost(code: int | None, stdout: str) -> int:
    """The nanosecond cost one perf run reports: its last stdout line. A
    failed run, or one that reports no positive cost, is a PerfError."""
    if code != 0:
        raise PerfError(f"benchmark binary exited with {code if code is not None else 'timeout'}")
    lines = [ln.strip() for ln in stdout.splitlines() if ln.strip()]
    if not lines or not _COST_RE.match(lines[-1]):
        raise PerfError(f"benchmark output has no nanosecond cost line: {_tail(stdout, 300)!r}")
    cost = int(lines[-1])
    if cost <= 0:
        raise PerfError("benchmark reported a non-positive cost")
    return cost


def _harness_path(case: ValidatedCase, which: str) -> Path:
    if which == "functional":
        return case.manifest.functional_test_path
    if which == "perf":
        return case.manifest.perf_test_path
    raise ValueError(f"unknown harness {which!r}")


class _Gate:
    """Writer-preferring reader-writer lock: while a writer holds it or waits
    for it, no new reader enters."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writers = 0  # waiting or holding
        self._writing = False

    @contextmanager
    def shared(self):
        with self._cond:
            self._cond.wait_for(lambda: not self._writers)
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def exclusive(self):
        with self._cond:
            self._writers += 1
            try:
                self._cond.wait_for(lambda: not (self._readers or self._writing))
            except BaseException:
                self._writers -= 1
                self._cond.notify_all()
                raise
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._writers -= 1
                self._cond.notify_all()


@dataclass(frozen=True, slots=True)
class _Step:
    """One compiler call, kept under ``key`` once it builds: fetch each need
    (an object step), then ``cc args <their objects> -o output``."""

    key: tuple[str, str]  # (case id, name)
    output: Path
    args: tuple[str, ...] = ()
    needs: tuple[_Step, ...] = ()


class CommandExecutor:
    """Runs the real cross-compiler and emulator per the configured toolchain.

    Builds and native costs are cached per instance, keyed by case id. Each
    case runs on one thread; the background thread builds the steps queued
    ahead, and ``_lock`` guards the one map of builds. ``drain`` (which
    ``cleanup`` calls) waits for queued builds and stops the thread; a later
    compile starts a new one. Each perf cost is a median of ``PERF_RUNS``.
    """

    def __init__(self, config: ToolchainConfig, work_dir: Path | str):
        self.config = config
        self.work_dir = Path(work_dir)
        self._lock = threading.Lock()
        # (case_id, name) -> the Future of the build's (artifact, diagnostics);
        # the name is a harness, "cand-<sha256>" for a candidate object, or
        # "<harness>-<sha256>" for a binary. A failed build is handed to
        # those who asked for it, then dropped, so failures stay uncached.
        self._builds: dict[tuple[str, str], Future] = {}
        self._queued_cases: set[str] = set()
        self._builder: ThreadPoolExecutor | None = None
        self._gate = _Gate()
        # native artifact -> median cost in ns
        self._native_costs: dict[Path, int] = {}

    def probe(self) -> None:
        """Fail fast, and distinctly from a compile failure, on missing tools."""
        for tool, what in ((self.config.cc, "compiler"), (self.config.runner, "runner")):
            exe = shlex.split(tool)[0]
            if shutil.which(exe) is None and not Path(exe).is_file():
                raise ConfigurationError(f"{what} not found: {exe}")

    def _scratch(self, case_id: str, tag: str) -> Path:
        d = self.work_dir / case_id / tag
        d.mkdir(parents=True, exist_ok=True)
        return d

    @staticmethod
    def _run(argv: list[str], timeout: int, what: str) -> tuple[int | None, str, str]:
        """Exit code (None on timeout), stdout and stderr of ``argv``; after a
        timeout, stderr says so. A ``what`` that cannot start is a
        ConfigurationError."""
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, errors="replace", timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return None, "", f"timeout after {timeout}s"
        except FileNotFoundError as exc:
            raise ConfigurationError(f"{what} not runnable: {exc}") from exc
        return proc.returncode, proc.stdout or "", proc.stderr or ""

    def _cc(self, *args: str) -> tuple[bool, str]:
        """Run ``cc flags args``; returns (exit status 0, stderr + stdout)."""
        argv = [*shlex.split(self.config.cc), *shlex.split(self.config.flags), *args]
        with self._gate.shared():
            code, stdout, stderr = self._run(argv, self.config.compile_timeout_s, "compiler")
        if code is None:
            return False, f"compile timeout after {self.config.compile_timeout_s}s"
        return code == 0, stderr + stdout

    def _build(self, step: _Step) -> tuple[Path | None, str]:
        """Fetch the step's needs, then run it. Returns the output (None on
        failure) and the diagnostics of the needs and then the step's own; a
        need that failed ends the build."""
        args, diagnostics = list(step.args), ""
        for need in step.needs:
            artifact, diag = self._object(need)
            diagnostics += diag
            if artifact is None:
                return None, diagnostics
            args.append(str(artifact))
        step.output.parent.mkdir(parents=True, exist_ok=True)
        ok, diag = self._cc(*args, "-o", str(step.output))
        diagnostics += diag
        if not ok or not step.output.exists():
            return None, diagnostics
        return step.output, diagnostics

    def _object(self, step: _Step) -> tuple[Path | None, str]:
        """``_build`` once per case: the kept or running build, else the step
        built here, taking it off the queue if it has not started. Only
        successes are kept; a failure or an exception goes to whoever asked,
        then is dropped."""
        with self._lock:
            future = self._builds.get(step.key)
            mine = future is None or future.cancel()
            if mine:
                future = self._builds[step.key] = Future()
                future.set_running_or_notify_cancel()
        if mine:
            try:
                future.set_result(self._build(step))
            except BaseException as exc:
                future.set_exception(exc)  # a thread waiting on it raises too
        built: tuple[Path | None, str] = (None, "")
        try:
            built = future.result()  # holds no gate while it waits
        finally:
            if built[0] is None:  # a failure or an exception is not kept
                with self._lock:
                    if self._builds.get(step.key) is future:
                        del self._builds[step.key]
        return built

    def _queue(self, *steps: _Step) -> None:
        """Queue each step not yet built, queued or running."""
        with self._lock:
            if self._builder is None:
                self._builder = ThreadPoolExecutor(1, thread_name_prefix="vecport-build")
            for step in steps:
                if step.key not in self._builds:
                    self._builds[step.key] = self._builder.submit(self._build, step)

    def _compile_step(self, case_id: str, name: str, source: Path) -> _Step:
        return _Step((case_id, name), self.work_dir / case_id / "obj" / f"{name}.o",
                     ("-c", str(source)))

    def _link_step(self, candidate: _Step, harness: _Step) -> _Step:
        """The binary of a candidate object and a harness object, in a
        directory of its own: ``bin/<harness>-<sha256>/bin_<harness>``."""
        case_id, which = harness.key
        name = f"{which}-{candidate.key[1].removeprefix('cand-')}"
        output = self.work_dir / case_id / "bin" / name / f"bin_{which}"
        return _Step((case_id, name), output, needs=(candidate, harness))

    def _harness_step(self, case: ValidatedCase, which: str) -> _Step:
        return self._compile_step(case.case_id, which, _harness_path(case, which))

    def _candidate_step(self, case_id: str, text: str, source: Path) -> _Step:
        name = f"cand-{hashlib.sha256(text.encode()).hexdigest()}"
        return self._compile_step(case_id, name, source)

    def compile_candidate(
        self,
        candidate_source: str,
        case: ValidatedCase,
        which_harness: str,
        tag: str,
    ) -> CompileResult:
        """Build the candidate against one harness: one cached object per
        source, one cached binary per (harness, candidate).

        A candidate that fails to compile returns at once, with its own
        diagnostics. The first call of a case queues the builds no reply can
        change: both harness objects before the candidate compiles, the
        native object and its perf binary after, so a candidate that is the
        native text is built once, as itself. A candidate that compiles for
        the functional harness also queues its perf binary.
        """
        case_id = case.case_id
        harness = self._harness_step(case, which_harness)
        perf = self._harness_step(case, "perf")
        first = case_id not in self._queued_cases  # a case runs on one thread
        if first:
            self._queued_cases.add(case_id)
            self._queue(self._harness_step(case, "functional"), perf)
        scratch = self._scratch(case_id, tag)
        source = scratch / "candidate.c"
        source.write_text(candidate_source)
        candidate = self._candidate_step(case_id, candidate_source, source)
        candidate_obj, diagnostics = self._object(candidate)
        if first:
            native_source = self._scratch(case_id, "native") / "native.c"
            # written once, so never while a build reads it
            native_source.write_text(case.native_text)
            native = self._candidate_step(case_id, case.native_text, native_source)
            self._queue(native, self._link_step(native, perf))
        binary = None
        if candidate_obj is not None:
            if which_harness == "functional":
                self._queue(self._link_step(candidate, perf))
            binary, diagnostics = self._object(self._link_step(candidate, harness))
        (scratch / "compile_stderr.txt").write_text(diagnostics)
        return CompileResult(binary is not None, _tail(diagnostics, 16384), artifact_path=binary)

    def _runs(
        self, binary: Path, vlens: Iterable[int], gate: Callable[[], AbstractContextManager]
    ) -> Iterator[tuple[int, int | None, str, str]]:
        """Run ``binary`` at each VLEN in turn, each run inside ``gate()``, and
        yield the VLEN, exit code (None on timeout), stdout and stderr. However
        the loop ends, the output of its last run that ended is copied next to
        the binary; a run that was killed leaves the copies as they were."""
        ended = None
        try:
            for vlen in vlens:
                argv = shlex.split(self.config.runner_cmd_template.format(
                    runner=self.config.runner, vlen=vlen, binary=shlex.quote(str(binary))
                ))
                with gate():
                    code, stdout, stderr = self._run(argv, self.config.run_timeout_s, "runner")
                if code is not None:
                    ended = stdout, stderr
                yield vlen, code, stdout, stderr
        finally:
            if ended is not None:
                with suppress(OSError):
                    (binary.parent / "stdout.txt").write_text(ended[0])
                    (binary.parent / "stderr.txt").write_text(ended[1])

    def run_functional_tests(self, artifact: Path) -> TestResult:
        runs = self._runs(artifact, self.config.vlens, self._gate.shared)
        return TestResult(per_vlen={
            vlen: VlenRun(passed=(code == 0), exit_code=code, output_tail=_tail(stdout + stderr))
            for vlen, code, stdout, stderr in runs
        })

    def _measure_cost(self, binary: Path) -> int:
        """Median of PERF_RUNS runs at the largest configured VLEN."""
        runs = closing(self._runs(binary, [max(self.config.vlens)] * PERF_RUNS, nullcontext))
        with runs as timed, self._gate.exclusive():  # no compile or test runs beside the timed runs
            return int(statistics.median([_cost(code, stdout) for _, code, stdout, _ in timed]))

    def run_perf(self, translated_artifact: Path, native_artifact: Path) -> PerfResult:
        """Each binary's ``_measure_cost``: the native one is measured on the
        first call for an artifact and reused after, the translated one afresh."""
        native = self._native_costs.get(Path(native_artifact))
        if native is None:  # measured once per case; failures are not kept
            native = self._measure_cost(native_artifact)
            self._native_costs[Path(native_artifact)] = native
        translated = self._measure_cost(translated_artifact)
        return PerfResult(translated_cost_ns=translated, native_cost_ns=native)

    def drain(self) -> None:
        """Wait for every queued build, then stop the background thread."""
        with self._lock:
            builder, self._builder = self._builder, None
        if builder is not None:
            builder.shutdown(wait=True)

    def cleanup(self) -> None:
        """Drain, then remove ``work_dir`` whole and forget the builds and
        native costs made there."""
        self.drain()
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self._builds.clear()
        self._queued_cases.clear()
        self._native_costs.clear()


# ---------------------------------------------------------------------------
# Marker-driven mock, for dry runs and deterministic pipeline tests.

_MOCK_COMPILE_RE = re.compile(r"mock-compile-error:\s*(.*)")
_MOCK_TEST_RE = re.compile(r"mock-test-fail(?::\s*vlen=(\d+))?(?::?\s*(.*))?")
_MOCK_COST_RE = re.compile(r"mock-cost:\s*(\d+)")
_MOCK_TIMEOUT_RE = re.compile(r"mock-run-timeout")
MOCK_COST_NS = 100_000  # cost of a candidate with no mock-cost marker


@dataclass(frozen=True, slots=True)
class _MockBuild:
    """What a mock candidate's markers script for its test and perf runs."""

    timeout: bool
    fail_vlen: int | None  # None: no VLEN-specific failure
    fail_all: bool
    fail_msg: str
    cost_ns: int  # the mock-cost marker, else MOCK_COST_NS


class MockExecutor:
    """Executor stand-in scripted by magic comments inside candidate sources.

        /* mock-compile-error: message */   compile fails with the message
        /* mock-test-fail: vlen=256 msg */  functional test fails at that VLEN
        /* mock-test-fail: msg */           fails at every VLEN
        /* mock-cost: 120000 */             benchmark cost in nanoseconds
        /* mock-run-timeout */              every run times out

    Unmarked sources, the native reference among them, compile, pass, and
    cost ``MOCK_COST_NS``. Everything is pure string inspection, so a replay
    script fully determines the pipeline's behavior.

    Nothing touches the disk. ``compile_candidate`` scans the markers once and
    returns as its artifact an in-memory handle: a ``Path`` naming the case,
    tag and harness, which is never created. The test and perf runs look the
    handle up; ``cleanup`` forgets every handle. Handles are keyed by case id,
    so cases may share one executor across threads.
    """

    def __init__(self, vlens: tuple[int, ...] = (128, 256)):
        self.vlens = tuple(vlens)
        validate_vlens(self.vlens)
        self._builds: dict[Path, _MockBuild] = {}

    def probe(self) -> None:
        return None

    def compile_candidate(
        self,
        candidate_source: str,
        case: ValidatedCase,
        which_harness: str,
        tag: str,
    ) -> CompileResult:
        _harness_path(case, which_harness)  # validates the harness choice
        m = _MOCK_COMPILE_RE.search(candidate_source)
        if m:
            return CompileResult(False, m.group(1).strip() or "mock compile error")
        # Markers are read with universal newlines: a '\r' ends a message.
        source = candidate_source.replace("\r\n", "\n").replace("\r", "\n")
        fail_vlen: int | None = None
        fail_msg = ""
        fail_all = False
        m = _MOCK_TEST_RE.search(source)
        if m:
            if m.group(1):
                fail_vlen = int(m.group(1))
            else:
                fail_all = True
            fail_msg = (m.group(2) or "").removesuffix("*/").strip() or "mock test failure"
        cost = _MOCK_COST_RE.search(source)
        handle = Path(case.case_id, tag, f"candidate_{which_harness}.c")
        self._builds[handle] = _MockBuild(
            timeout=_MOCK_TIMEOUT_RE.search(source) is not None,
            fail_vlen=fail_vlen,
            fail_all=fail_all,
            fail_msg=fail_msg,
            cost_ns=int(cost.group(1)) if cost else MOCK_COST_NS,
        )
        return CompileResult(True, "", artifact_path=handle)

    def run_functional_tests(self, artifact: Path) -> TestResult:
        build = self._builds[Path(artifact)]
        per_vlen: dict[int, VlenRun] = {}
        for vlen in self.vlens:
            if build.timeout:
                per_vlen[vlen] = VlenRun(False, None, "timeout")
            elif build.fail_all or build.fail_vlen == vlen:
                per_vlen[vlen] = VlenRun(False, 1, build.fail_msg)
            else:
                per_vlen[vlen] = VlenRun(True, 0, "ok")
        return TestResult(per_vlen=per_vlen)

    def run_perf(self, translated_artifact: Path, native_artifact: Path) -> PerfResult:
        native = self._builds[Path(native_artifact)].cost_ns
        translated = self._builds[Path(translated_artifact)].cost_ns
        if native <= 0 or translated <= 0:
            raise PerfError("mock cost must be positive")
        return PerfResult(translated_cost_ns=translated, native_cost_ns=native)

    def cleanup(self) -> None:
        self._builds.clear()
