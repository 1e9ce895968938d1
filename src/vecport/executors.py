"""External toolchain drivers: cross-compile, emulated functional tests across
vector lengths, and benchmark runs.

The compiler is driven as ``cc flags ...`` and the emulator through a command
template, so a different compiler, emulator, or a real board behind an ssh
wrapper slots in without code changes. Candidates never touch the case
directory; each attempt of ``CommandExecutor`` gets its own scratch directory
under ``work/<case>/<tag>/``, and ``cleanup`` removes ``work/`` whole.
``MockExecutor`` works in memory and creates no scratch.

Nothing that cannot change within a case is rebuilt or re-measured: each
case's test and bench harnesses are compiled to objects once, each distinct
candidate source is compiled to an object once, and every build links one
candidate object with one harness object (objects live in ``work/<case>/obj/``).
The objects that no reply can change, the two harnesses and the native
reference (from its own copy, ``work/<case>/native/native.c``), are built
ahead: the first compile of a case queues them on the executor's one
background thread while the candidate compiles in the foreground, so they
are built even for a case that never passes. The native reference's
median-of-N cost is measured on the first ``run_perf`` of a case and reused
for every later variant; each variant's own cost is always a fresh median of
N runs.

Perf runs have the executor to themselves: every compiler and functional-test
subprocess holds the shared side of a writer-preferring reader-writer gate,
and each median-of-N loop holds its exclusive side, so under parallelism no
compile or test of another case runs beside a timed run.

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
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
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
    runs: int

    @cached_property
    def speedup(self) -> Fraction:
        return Fraction(self.native_cost_ns, self.translated_cost_ns)

    def to_dict(self) -> dict:
        return {
            "translated_cost_ns": self.translated_cost_ns,
            "native_cost_ns": self.native_cost_ns,
            "speedup": str(self.speedup),
            "runs": self.runs,
        }


def _tail(text: str, limit: int = OUTPUT_TAIL_BYTES) -> str:
    return text[-limit:] if len(text) > limit else text


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


class CommandExecutor:
    """Runs the real cross-compiler and emulator per the configured toolchain.

    Objects and native costs are cached per instance, keyed by case id. Each
    case runs on one thread; the background thread also fills the object
    keys of the builds queued ahead, and ``_lock`` guards those two maps.
    ``drain`` (which ``cleanup`` calls) waits for queued builds and stops
    the thread; a later compile starts a new one.
    """

    def __init__(self, config: ToolchainConfig, work_dir: Path | str):
        self.config = config
        self.work_dir = Path(work_dir)
        self._lock = threading.Lock()
        # (case_id, harness name or "cand-<sha256>") -> (object, diagnostics)
        self._objects: dict[tuple[str, str], tuple[Path, str]] = {}
        # Builds queued ahead and not yet asked for; a failed one is handed
        # to its first asker only, so failures stay uncached.
        self._pending: dict[tuple[str, str], Future] = {}
        self._queued_cases: set[str] = set()
        self._builder: ThreadPoolExecutor | None = None
        self._gate = _Gate()
        # (native artifact, vlen, runs) -> median cost in ns
        self._native_costs: dict[tuple[Path, int, int], int] = {}

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

    def _build(self, key: tuple[str, str], source: Path) -> tuple[Path | None, str]:
        """Compile ``source`` to ``obj/<name>.o``; keep the object if it built.
        Returns the object (None on failure) and its diagnostics."""
        case_id, name = key
        obj = self.work_dir / case_id / "obj" / f"{name}.o"
        obj.parent.mkdir(parents=True, exist_ok=True)
        ok, diagnostics = self._cc("-c", str(source), "-o", str(obj))
        if not ok or not obj.exists():
            return None, diagnostics
        with self._lock:
            self._objects[key] = (obj, diagnostics)
            self._pending.pop(key, None)
        return obj, diagnostics

    def _object(self, case_id: str, name: str, source: Path) -> tuple[Path | None, str]:
        """``_build`` once per case, or the result of the build queued ahead;
        only successes are kept."""
        key = (case_id, name)
        with self._lock:
            hit = self._objects.get(key)
            queued = None if hit else self._pending.pop(key, None)
        if hit is not None:
            return hit
        if queued is not None:
            return queued.result()  # holds no gate while it waits
        return self._build(key, source)

    def _queue(self, case_id: str, jobs: list[tuple[str, Path]]) -> None:
        """Queue a build of each (name, source) not yet built or queued."""
        with self._lock:
            if self._builder is None:
                self._builder = ThreadPoolExecutor(1, thread_name_prefix="vecport-build")
            for name, source in jobs:
                key = (case_id, name)
                if key not in self._objects and key not in self._pending:
                    self._pending[key] = self._builder.submit(self._build, key, source)

    def compile_candidate(
        self,
        candidate_source: str,
        case: ValidatedCase,
        which_harness: str,
        tag: str,
    ) -> CompileResult:
        """Build the candidate against one harness: two cached objects, one link.

        The first call of a case also queues the objects no reply can change:
        both harnesses before the candidate compiles, the native reference
        after, so a candidate that is the native text is built once, as itself.
        """
        harness = _harness_path(case, which_harness)
        first = case.case_id not in self._queued_cases  # a case runs on one thread
        if first:
            self._queued_cases.add(case.case_id)
            self._queue(case.case_id, [(w, _harness_path(case, w)) for w in ("functional", "perf")])
        scratch = self._scratch(case.case_id, tag)
        candidate = scratch / "candidate.c"
        candidate.write_text(candidate_source)
        digest = hashlib.sha256(candidate_source.encode()).hexdigest()
        candidate_obj, candidate_diag = self._object(case.case_id, f"cand-{digest}", candidate)
        if first:
            native = self._scratch(case.case_id, "native") / "native.c"
            native.write_text(case.native_text)  # written once, so never while a build reads it
            native_digest = hashlib.sha256(case.native_text.encode()).hexdigest()
            self._queue(case.case_id, [(f"cand-{native_digest}", native)])
        harness_obj, harness_diag = self._object(case.case_id, which_harness, harness)
        diagnostics = candidate_diag + harness_diag
        output = scratch / f"bin_{which_harness}"
        ok = candidate_obj is not None and harness_obj is not None
        if ok:
            ok, link_diag = self._cc(str(candidate_obj), str(harness_obj), "-o", str(output))
            diagnostics += link_diag
        (scratch / "compile_stderr.txt").write_text(diagnostics)
        if not ok or not output.exists():
            return CompileResult(False, _tail(diagnostics, 16384))
        return CompileResult(True, _tail(diagnostics, 16384), artifact_path=output)

    def _run_binary(self, binary: Path, vlen: int) -> tuple[int | None, str, str]:
        """Exit code (None on timeout), stdout and stderr of one run."""
        cmd = self.config.runner_cmd_template.format(
            runner=self.config.runner, vlen=vlen, binary=shlex.quote(str(binary))
        )
        code, stdout, stderr = self._run(shlex.split(cmd), self.config.run_timeout_s, "runner")
        if code is not None:
            try:  # post-mortem copies next to the binary; last run wins
                (binary.parent / "stdout.txt").write_text(stdout)
                (binary.parent / "stderr.txt").write_text(stderr)
            except OSError:
                pass
        return code, stdout, stderr

    def run_functional_tests(self, artifact: Path) -> TestResult:
        per_vlen: dict[int, VlenRun] = {}
        for vlen in self.config.vlens:
            with self._gate.shared():
                code, stdout, stderr = self._run_binary(artifact, vlen)
            per_vlen[vlen] = VlenRun(
                passed=(code == 0), exit_code=code, output_tail=_tail(stdout + stderr)
            )
        return TestResult(per_vlen=per_vlen)

    def _measure_cost(self, binary: Path, vlen: int, runs: int) -> int:
        costs = []
        with self._gate.exclusive():  # no compile or test runs beside the timed runs
            for _ in range(runs):
                code, stdout, _ = self._run_binary(binary, vlen)
                if code != 0:
                    raise PerfError(
                        f"benchmark binary exited with {code if code is not None else 'timeout'}"
                    )
                lines = [ln.strip() for ln in stdout.splitlines() if ln.strip()]
                if not lines or not _COST_RE.match(lines[-1]):
                    raise PerfError(
                        f"benchmark output has no nanosecond cost line: {_tail(stdout, 300)!r}"
                    )
                cost = int(lines[-1])
                if cost <= 0:
                    raise PerfError("benchmark reported a non-positive cost")
                costs.append(cost)
        return int(statistics.median(costs))

    def run_perf(
        self, translated_artifact: Path, native_artifact: Path, runs: int = 5
    ) -> PerfResult:
        """Median-of-N cost for both binaries at the largest configured VLEN.

        The native median is measured on the first call for an artifact and
        reused after; the translated median is always fresh.
        """
        vlen = max(self.config.vlens)
        key = (Path(native_artifact), vlen, runs)
        native = self._native_costs.get(key)
        if native is None:  # measured once per case; failures are not kept
            native = self._measure_cost(native_artifact, vlen, runs)
            self._native_costs[key] = native
        translated = self._measure_cost(translated_artifact, vlen, runs)
        return PerfResult(translated_cost_ns=translated, native_cost_ns=native, runs=runs)

    def drain(self) -> None:
        """Wait for every queued build, then stop the background thread."""
        with self._lock:
            builder, self._builder = self._builder, None
        if builder is not None:
            builder.shutdown(wait=True)

    def cleanup(self) -> None:
        """Drain, then remove ``work_dir`` whole and forget the objects and
        native costs built there."""
        self.drain()
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self._objects.clear()
        self._pending.clear()
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

    def run_perf(
        self, translated_artifact: Path, native_artifact: Path, runs: int = 5
    ) -> PerfResult:
        native = self._builds[Path(native_artifact)].cost_ns
        translated = self._builds[Path(translated_artifact)].cost_ns
        if native <= 0 or translated <= 0:
            raise PerfError("mock cost must be positive")
        return PerfResult(translated_cost_ns=translated, native_cost_ns=native, runs=runs)

    def cleanup(self) -> None:
        self._builds.clear()
