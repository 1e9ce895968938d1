"""Per-case finite state machine: translate, repair, optimize, select best.

The correctness loop (Translate -> Compile -> FuncTest) repairs the candidate
from compiler diagnostics or test reports until it passes on every configured
VLEN or the translation budget runs out. The optimization loop then iterates
on the current best variant with register-pressure and speedup feedback;
failed optimization rounds consume budget but can never lose the correct
baseline, so the returned best variant always passed all tests.

Both loops share one evaluate step (LLM call, extract, compile, test at every
VLEN, record) and one measure step (perf harness, speedup), which serves the
baseline and every optimized variant. A variant's pressure report is read
only when the variant anchors an optimization round or is selected best, so
it is computed then, the first time, and kept, a failed analysis included.

Every LLM call is recorded as one Attempt and written once, as one line of
the case's log ``<log_dir>/<case>.ndjson``; ``TaskOutcome.to_dict`` leaves
the attempts out. With a replay client and mock executors the whole trace,
log included, reproduces byte-for-byte except for timestamps. With a real
executor it does not: each optimization prompt embeds the anchor's measured
speedup, so its prompt digest follows timing noise.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path

from .agents import (
    Diagnostics,
    build_optimize_prompt,
    build_repair_prompt,
    build_translate_prompt,
    extract_code,
)
from .corpus import ValidatedCase
from .errors import NoCodeError, PerfError, ReplayExhaustedError, VecportError
from .executors import CompileResult, PerfResult, TestResult
from .liveness import PressureReport, analyze_source

MAX_TOKENS = 4096  # completion length asked of the model
# Code points UTF-8 cannot encode: lone surrogates, which a reply's JSON can
# carry as "\ud800". Like undecodable tool output, they become U+FFFD.
_UNENCODABLE = re.compile("[\ud800-\udfff]")


class FsmState(Enum):
    INIT = "Init"
    TRANSLATE = "Translate"
    COMPILE = "Compile"
    FUNC_TEST = "FuncTest"
    BASELINE_PERF = "BaselinePerf"
    OPTIMIZE = "Optimize"
    OPT_COMPILE = "OptCompile"
    OPT_TEST = "OptTest"
    OPT_PERF = "OptPerf"
    SELECT_BEST = "SelectBest"
    DONE = "Done"
    FAILED = "Failed"


@dataclass
class Budgets:
    translate_max: int = 10
    optimize_max: int = 10

    def __post_init__(self):
        if self.translate_max < 1 or self.optimize_max < 1:
            raise ValueError("iteration budgets must be at least 1")


@dataclass
class Attempt:
    attempt_no: int
    phase: str  # "translation" | "optimization"
    prompt_digest: str
    response_digest: str
    code: str
    compile_ok: bool | None = None
    compile_diagnostics: str = ""
    tests_passed: bool | None = None
    test_report: str = ""
    pressure: dict | None = None  # report fed into an optimization prompt
    note: str = ""
    timestamp: float = 0.0

    def to_record(self) -> dict:
        return dict(vars(self))  # the log writer sorts the keys


@dataclass
class Variant:
    """A passing candidate. ``pressure`` is filled in when the variant first
    anchors a round or is selected best; it stays None before that, and
    when the analysis fails."""

    variant_id: int
    code: str
    pressure: PressureReport | None = None
    perf: PerfResult | None = None


@dataclass
class TaskOutcome:
    case_id: str
    passed: bool
    attempts_used: int
    best_variant: Variant | None
    all_attempts: list[Attempt]
    variants: list[Variant] = field(default_factory=list)
    final_speedup: Fraction | None = None
    fsm_trace: list[FsmState] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "passed": self.passed,
            "attempts_used": self.attempts_used,
            "final_speedup": str(self.final_speedup) if self.final_speedup is not None else None,
            "best_variant": None
            if self.best_variant is None
            else {
                "variant_id": self.best_variant.variant_id,
                "code": self.best_variant.code,
                "pressure": self.best_variant.pressure.to_dict()
                if self.best_variant.pressure
                else None,
                "perf": self.best_variant.perf.to_dict() if self.best_variant.perf else None,
            },
            "fsm_trace": [s.value for s in self.fsm_trace],
            "notes": self.notes,
        }


@dataclass
class TaskDeps:
    """Everything a task needs injected: model client, executors, log directory."""

    client: object  # LlmClient
    executor: object  # CommandExecutor | MockExecutor
    log_dir: Path  # each case's attempts go to <log_dir>/<case>.ndjson
    temperature: float = 0.2
    pressure_mode: str = "literal"
    perf_runs: int = 5


def select_best(variants: list[Variant]) -> Variant:
    """Best-performing passing variant: measured beats unmeasured, higher
    speedup beats lower, ties go to the earliest variant."""
    if not variants:
        raise ValueError("select_best requires at least one passing variant")
    best = variants[0]
    for v in variants[1:]:
        if v.perf is None:
            continue
        if best.perf is None or v.perf.speedup > best.perf.speedup:
            best = v
    return best


def _safe_pressure(code: str, signature: str, mode: str) -> PressureReport | None:
    try:
        return analyze_source(code, signature, mode)
    except VecportError:
        return None


@dataclass(frozen=True)
class _Phase:
    """What differs between the correctness and the optimization loop."""

    name: str  # Attempt.phase
    tag: str  # executor tag prefix: {tag}{n} and {tag}{n}-perf
    compile_state: FsmState
    test_state: FsmState
    no_code_hint: str
    no_perf_note: str
    no_harness_note: str


_TRANSLATION = _Phase(
    "translation", "t", FsmState.COMPILE, FsmState.FUNC_TEST,
    "the previous reply contained no code block; reply with exactly one fenced "
    "code block holding the complete C file",
    "baseline perf unavailable: {exc}",
    "baseline perf harness failed to compile",
)
_OPTIMIZATION = _Phase(
    "optimization", "opt", FsmState.OPT_COMPILE, FsmState.OPT_TEST,
    "the previous reply contained no code block",
    "variant {id}: no perf data ({exc})",
    "variant {id}: perf harness failed to compile",
)


def run_task(case: ValidatedCase, budgets: Budgets, deps: TaskDeps) -> TaskOutcome:
    """Drive one case through the full FSM; see the module docstring.

    Configuration errors (missing tools, unusable replay script) propagate to
    the caller; they abort the run and are never folded into a Failed outcome.
    """
    trace = [FsmState.INIT]
    attempts: list[Attempt] = []
    variants: list[Variant] = []
    notes: list[str] = []
    client = deps.client.session(case.case_id)
    log_path = Path(deps.log_dir) / f"{case.case_id}.ndjson"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    log_path.write_text("")
    analyzed: set[int] = set()  # variant ids whose pressure has been computed

    def pressure_of(variant: Variant) -> PressureReport | None:
        """The variant's report, computed the first time it is asked for."""
        if variant.variant_id not in analyzed:
            analyzed.add(variant.variant_id)
            variant.pressure = _safe_pressure(
                variant.code, case.function_signature, deps.pressure_mode
            )
        return variant.pressure

    def evaluate(
        phase: _Phase, attempt_no: int, bundle, pressure: PressureReport | None = None
    ) -> tuple[str, Diagnostics | None]:
        """Ask the model, then extract, compile, test and record one attempt.

        Returns the extracted code (the raw reply when it held none) and the
        repair feedback, which is None when the code passed at every VLEN.
        """
        response = client.complete(bundle.messages, deps.temperature, MAX_TOKENS)
        response = _UNENCODABLE.sub("\ufffd", response)
        attempt = Attempt(
            attempt_no=attempt_no,
            phase=phase.name,
            prompt_digest=bundle.context_digest,
            response_digest=hashlib.sha256(response.encode()).hexdigest(),
            code="",
            pressure=pressure.to_dict() if pressure is not None else None,
            timestamp=time.time(),
        )
        feedback = None
        try:
            code = attempt.code = extract_code(response)
        except NoCodeError:
            attempt.note = "no code emitted"
            code, feedback = response, Diagnostics("compile", phase.no_code_hint)
        else:
            trace.append(phase.compile_state)
            compiled: CompileResult = deps.executor.compile_candidate(
                code, case, "functional", tag=f"{phase.tag}{attempt_no}"
            )
            attempt.compile_ok = compiled.success
            attempt.compile_diagnostics = compiled.diagnostics
            if not compiled.success:
                feedback = Diagnostics("compile", compiled.diagnostics)
            else:
                trace.append(phase.test_state)
                tested: TestResult = deps.executor.run_functional_tests(compiled.artifact_path)
                attempt.tests_passed = tested.all_passed
                attempt.test_report = tested.describe()
                if not tested.all_passed:
                    feedback = Diagnostics("test", attempt.test_report)
        attempts.append(attempt)
        with log_path.open("a") as fh:
            fh.write(json.dumps(attempt.to_record(), sort_keys=True) + "\n")
        return code, feedback

    def measure(phase: _Phase, n: int, code: str) -> None:
        """Add passing code as the next variant, with its speedup over the
        native reference when that compiled."""
        variant = Variant(variant_id=len(variants), code=code)
        variants.append(variant)
        if native_artifact is None:
            return
        compiled = deps.executor.compile_candidate(code, case, "perf", tag=f"{phase.tag}{n}-perf")
        if not compiled.success:
            notes.append(phase.no_harness_note.format(id=variant.variant_id))
            return
        try:
            variant.perf = deps.executor.run_perf(
                compiled.artifact_path, native_artifact, deps.perf_runs
            )
        except PerfError as exc:
            notes.append(phase.no_perf_note.format(id=variant.variant_id, exc=exc))

    # --- correctness loop -------------------------------------------------
    feedback: Diagnostics | None = None
    for attempts_used in range(1, budgets.translate_max + 1):
        trace.append(FsmState.TRANSLATE)
        if feedback is None:
            bundle = build_translate_prompt(case)
        else:
            bundle = build_repair_prompt(case, code, feedback)
        code, feedback = evaluate(_TRANSLATION, attempts_used, bundle)
        if feedback is None:
            break
    else:
        trace.append(FsmState.FAILED)
        return TaskOutcome(
            case_id=case.case_id,
            passed=False,
            attempts_used=budgets.translate_max,
            best_variant=None,
            all_attempts=attempts,
            fsm_trace=trace,
            notes=notes,
        )

    # --- baseline measurement ---------------------------------------------
    trace.append(FsmState.BASELINE_PERF)
    native = deps.executor.compile_candidate(case.native_text, case, "perf", tag="native")
    native_artifact = native.artifact_path if native.success else None
    if native_artifact is None:
        notes.append("native reference failed to compile; no perf data for this case")
    measure(_TRANSLATION, 0, code)

    # --- optimization loop --------------------------------------------------
    feedback = None
    for opt_no in range(1, budgets.optimize_max + 1):
        trace.append(FsmState.OPTIMIZE)
        anchor = select_best(variants)
        pressure = pressure_of(anchor)
        bundle = build_optimize_prompt(
            case,
            anchor.code,
            pressure,
            speedup=anchor.perf.speedup if anchor.perf else None,
            feedback=feedback,
        )
        try:
            code, feedback = evaluate(_OPTIMIZATION, opt_no, bundle, pressure)
        except ReplayExhaustedError:
            notes.append(f"replay script exhausted after {opt_no - 1} optimization rounds")
            break
        if feedback is None:
            trace.append(FsmState.OPT_PERF)
            measure(_OPTIMIZATION, opt_no, code)

    # --- selection -----------------------------------------------------------
    trace.append(FsmState.SELECT_BEST)
    best = select_best(variants)
    pressure_of(best)
    trace.append(FsmState.DONE)
    return TaskOutcome(
        case_id=case.case_id,
        passed=True,
        attempts_used=attempts_used,
        best_variant=best,
        all_attempts=attempts,
        variants=variants,
        final_speedup=best.perf.speedup if best.perf else None,
        fsm_trace=trace,
        notes=notes,
    )
