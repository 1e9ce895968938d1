import dataclasses
import gc
import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from vecport import orchestrator
from vecport.errors import ConfigurationError
from vecport.executors import CompileResult, MockExecutor, PerfResult
from vecport.llm_client import ReplayClient
from vecport.orchestrator import (
    Budgets,
    FsmState,
    TaskDeps,
    Variant,
    run_task,
    select_best,
)

S = FsmState

GOOD_RVV = """\
#include <riscv_vector.h>
#include <stddef.h>
#include <stdint.h>

void vec_add_s32(const int32_t *a, const int32_t *b, int32_t *c, size_t n) {
    while (n > 0) {
        size_t vl = __riscv_vsetvl_e32m2(n);
        vint32m2_t va = __riscv_vle32_v_i32m2(a, vl);
        vint32m2_t vb = __riscv_vle32_v_i32m2(b, vl);
        vint32m2_t vc = __riscv_vadd_vv_i32m2(va, vb, vl);
        __riscv_vse32_v_i32m2(c, vc, vl);
        a += vl;
        b += vl;
        c += vl;
        n -= vl;
    }
}
"""

BAD_COMPILE = "/* mock-compile-error: error: no matching intrinsic for vaddq */\nvoid x(void) {}\n"


def fenced(code: str) -> str:
    return f"Here is the translation:\n```c\n{code}```\n"


def with_cost(code: str, cost: int) -> str:
    return f"/* mock-cost: {cost} */\n{code}"


def deps_for(tmp_path, responses) -> TaskDeps:
    return TaskDeps(
        client=ReplayClient(responses),
        executor=MockExecutor(),
        log_dir=tmp_path / "attempts",
    )


def test_success_on_first_attempt_with_no_optimizer_gain(tmp_path, vec_add_case):
    deps = deps_for(tmp_path, [fenced(GOOD_RVV), fenced(GOOD_RVV)])
    outcome = run_task(vec_add_case, Budgets(10, 1), deps)
    assert outcome.passed
    assert outcome.attempts_used == 1
    assert outcome.best_variant.variant_id == 0  # tie on speedup keeps the baseline
    assert outcome.final_speedup == 1
    assert outcome.fsm_trace[-2:] == [S.SELECT_BEST, S.DONE]


def test_two_compile_failures_then_success_traces_exactly(tmp_path, vec_add_case):
    deps = deps_for(
        tmp_path,
        [fenced(BAD_COMPILE), fenced(BAD_COMPILE), fenced(GOOD_RVV), fenced(GOOD_RVV)],
    )
    outcome = run_task(vec_add_case, Budgets(10, 1), deps)
    assert outcome.passed
    assert outcome.attempts_used == 3
    assert outcome.fsm_trace == [
        S.INIT,
        S.TRANSLATE, S.COMPILE,
        S.TRANSLATE, S.COMPILE,
        S.TRANSLATE, S.COMPILE, S.FUNC_TEST,
        S.BASELINE_PERF,
        S.OPTIMIZE, S.OPT_COMPILE, S.OPT_TEST, S.OPT_PERF,
        S.SELECT_BEST, S.DONE,
    ]


def test_budget_exhaustion_fails_with_exactly_ten_calls(tmp_path, vec_add_case):
    deps = deps_for(tmp_path, [fenced(BAD_COMPILE)] * 10)
    outcome = run_task(vec_add_case, Budgets(10, 10), deps)
    assert not outcome.passed
    assert outcome.attempts_used == 10
    assert deps.client.calls_made == 10
    assert outcome.fsm_trace[-1] == S.FAILED
    assert outcome.best_variant is None
    assert len(outcome.all_attempts) == 10
    assert [a.attempt_no for a in outcome.all_attempts] == list(range(1, 11))


def test_test_failure_feeds_vlen_report_into_repair(tmp_path, vec_add_case):
    lanes_bug = "/* mock-test-fail: vlen=256 tail processed only 4 lanes */\n" + GOOD_RVV
    deps = deps_for(tmp_path, [fenced(lanes_bug), fenced(GOOD_RVV), fenced(GOOD_RVV)])
    outcome = run_task(vec_add_case, Budgets(10, 1), deps)
    assert outcome.passed
    assert outcome.attempts_used == 2
    first = outcome.all_attempts[0]
    assert first.compile_ok and first.tests_passed is False
    assert "VLEN=256" in first.test_report
    assert S.FUNC_TEST in outcome.fsm_trace


def test_optimized_variant_with_better_speedup_wins(tmp_path, vec_add_case):
    case = dataclasses.replace(
        vec_add_case, native_text=with_cost(vec_add_case.native_text, 130000)
    )
    deps = deps_for(
        tmp_path,
        [fenced(with_cost(GOOD_RVV, 130000)), fenced(with_cost(GOOD_RVV, 100000))],
    )
    outcome = run_task(case, Budgets(10, 1), deps)
    assert outcome.passed
    assert outcome.best_variant.variant_id == 1
    assert outcome.final_speedup == Fraction(13, 10)
    assert outcome.variants[0].perf.speedup == 1


def test_failed_optimization_never_loses_the_baseline(tmp_path, vec_add_case):
    deps = deps_for(
        tmp_path,
        [
            fenced(GOOD_RVV),
            fenced(BAD_COMPILE),  # optimization 1: broken
            fenced("/* mock-test-fail: regression */\n" + GOOD_RVV),  # optimization 2
        ],
    )
    outcome = run_task(vec_add_case, Budgets(10, 2), deps)
    assert outcome.passed
    assert outcome.best_variant.variant_id == 0
    assert any(
        a.tests_passed is True and a.code == outcome.best_variant.code
        for a in outcome.all_attempts
    )
    assert len(outcome.variants) == 1
    opt_attempts = [a for a in outcome.all_attempts if a.phase == "optimization"]
    assert len(opt_attempts) == 2
    assert opt_attempts[0].compile_ok is False
    assert opt_attempts[1].tests_passed is False


def test_no_code_response_consumes_an_attempt(tmp_path, vec_add_case):
    deps = deps_for(tmp_path, ["I cannot write code today.", fenced(GOOD_RVV)])
    outcome = run_task(vec_add_case, Budgets(10, 1), deps)
    assert outcome.passed
    assert outcome.attempts_used == 2
    assert outcome.all_attempts[0].note == "no code emitted"


def test_no_code_reply_in_an_optimize_round_feeds_the_next_round(tmp_path, vec_add_case):
    deps = deps_for(tmp_path, [fenced(GOOD_RVV), "Unrolling should help.", fenced(GOOD_RVV)])
    outcome = run_task(vec_add_case, Budgets(10, 2), deps)
    assert outcome.passed
    opt = [a for a in outcome.all_attempts if a.phase == "optimization"]
    assert [a.note for a in opt] == ["no code emitted", ""]
    assert opt[0].code == "" and opt[0].compile_ok is None
    assert opt[0].prompt_digest != opt[1].prompt_digest  # the hint reached the prompt
    assert [v.variant_id for v in outcome.variants] == [0, 1]
    assert outcome.fsm_trace[-8:] == [
        S.BASELINE_PERF,
        S.OPTIMIZE,
        S.OPTIMIZE, S.OPT_COMPILE, S.OPT_TEST, S.OPT_PERF,
        S.SELECT_BEST, S.DONE,
    ]


def test_baseline_perf_error_is_a_note_and_a_measured_variant_wins(tmp_path, vec_add_case):
    deps = deps_for(tmp_path, [fenced(with_cost(GOOD_RVV, 0)), fenced(GOOD_RVV)])
    outcome = run_task(vec_add_case, Budgets(10, 1), deps)
    assert outcome.passed
    assert outcome.notes == ["baseline perf unavailable: mock cost must be positive"]
    assert outcome.variants[0].perf is None
    assert outcome.best_variant.variant_id == 1
    assert outcome.final_speedup == 1


def test_variant_perf_error_is_a_note_and_keeps_the_baseline(tmp_path, vec_add_case):
    deps = deps_for(tmp_path, [fenced(GOOD_RVV), fenced(with_cost(GOOD_RVV, 0))])
    outcome = run_task(vec_add_case, Budgets(10, 1), deps)
    assert outcome.notes == ["variant 1: no perf data (mock cost must be positive)"]
    assert len(outcome.variants) == 2 and outcome.variants[1].perf is None
    assert outcome.best_variant.variant_id == 0
    assert outcome.final_speedup == 1


class PerfHarnessBreaks(MockExecutor):
    """Functional builds succeed; chosen perf builds fail to compile. The
    native reference's perf build comes first; the ones after it are numbered
    in order: 0 is the baseline, 1 the first variant."""

    def __init__(self, broken, **kw):
        super().__init__(**kw)
        self.broken = set(broken)
        self.perf_builds = -1  # the native reference's

    def compile_candidate(self, candidate_source, case, which_harness):
        if which_harness == "perf":
            n, self.perf_builds = self.perf_builds, self.perf_builds + 1
            if n in self.broken:
                return CompileResult(False, "bench.c: error: undefined reference to 'kernel'")
        return super().compile_candidate(candidate_source, case, which_harness)


@pytest.mark.parametrize(
    ("broken", "note", "measured"),
    [
        (0, "baseline perf harness failed to compile", [False, True]),
        (1, "variant 1: perf harness failed to compile", [True, False]),
    ],
    ids=["baseline", "variant"],
)
def test_perf_harness_compile_failure_is_a_note(tmp_path, vec_add_case, broken, note, measured):
    deps = TaskDeps(
        client=ReplayClient([fenced(GOOD_RVV), fenced(GOOD_RVV)]),
        executor=PerfHarnessBreaks({broken}),
        log_dir=tmp_path / "attempts",
    )
    outcome = run_task(vec_add_case, Budgets(10, 1), deps)
    assert outcome.passed
    assert outcome.notes == [note]
    assert [v.perf is not None for v in outcome.variants] == measured
    assert outcome.final_speedup == 1
    assert all(a.tests_passed for a in outcome.all_attempts)


def test_budgets_below_one_are_rejected():
    for translate_max, optimize_max in ((0, 1), (1, 0), (-1, 10)):
        with pytest.raises(ValueError, match="iteration budgets must be at least 1"):
            Budgets(translate_max, optimize_max)


def test_replay_exhaustion_mid_optimization_stops_gracefully(tmp_path, vec_add_case):
    deps = deps_for(tmp_path, [fenced(GOOD_RVV), fenced(GOOD_RVV)])
    outcome = run_task(vec_add_case, Budgets(10, 10), deps)
    assert outcome.passed
    assert any("exhausted" in n for n in outcome.notes)
    assert outcome.fsm_trace[-2:] == [S.SELECT_BEST, S.DONE]


def test_total_llm_calls_bounded_by_budgets(tmp_path, vec_add_case):
    responses = [fenced(GOOD_RVV)] * 30
    deps = deps_for(tmp_path, responses)
    budgets = Budgets(translate_max=4, optimize_max=3)
    run_task(vec_add_case, budgets, deps)
    assert deps.client.calls_made <= budgets.translate_max + budgets.optimize_max


def test_optimize_anchors_on_best_variant_pressure(tmp_path, vec_add_case):
    outcome = run_task(
        vec_add_case, Budgets(10, 1), deps_for(tmp_path, [fenced(GOOD_RVV), fenced(GOOD_RVV)])
    )
    assert outcome.variants[0].pressure is not None
    assert outcome.variants[0].pressure.pressure == 6
    opt = [a for a in outcome.all_attempts if a.phase == "optimization"][0]
    assert opt.pressure is not None
    assert opt.pressure["pressure"] == "6"


@pytest.fixture
def analyzed(monkeypatch):
    """The code of every variant the orchestrator analyzes, in call order."""
    codes = []
    original = orchestrator.analyze_source

    def counting(code, signature, mode="literal"):
        codes.append(code)
        return original(code, signature, mode)

    monkeypatch.setattr(orchestrator, "analyze_source", counting)
    return codes


def test_a_losing_variant_that_never_anchors_is_never_analyzed(tmp_path, vec_add_case, analyzed):
    case = dataclasses.replace(
        vec_add_case, native_text=with_cost(vec_add_case.native_text, 130000)
    )
    replies = [fenced(with_cost(GOOD_RVV, c)) for c in (100000, 260000)]
    deps = deps_for(tmp_path, [*replies, fenced(BAD_COMPILE)])
    outcome = run_task(case, Budgets(10, 2), deps)
    assert [v.perf.speedup for v in outcome.variants] == [Fraction(13, 10), Fraction(1, 2)]
    assert outcome.best_variant.variant_id == 0
    assert analyzed == [outcome.variants[0].code]
    assert outcome.variants[0].pressure.pressure == 6
    assert outcome.variants[1].pressure is None


def test_an_unparsable_variant_that_anchors_twice_is_analyzed_once(
    tmp_path, vec_add_case, analyzed
):
    unparsable = "void vec_add_s32(int n) { goto out; }\n"
    deps = deps_for(tmp_path, [fenced(unparsable), fenced(BAD_COMPILE), fenced(BAD_COMPILE)])
    outcome = run_task(vec_add_case, Budgets(10, 2), deps)
    assert outcome.passed and len(outcome.variants) == 1
    assert "goto" in outcome.best_variant.code
    assert analyzed == [outcome.best_variant.code]
    assert outcome.best_variant.pressure is None
    opt = [a for a in outcome.all_attempts if a.phase == "optimization"]
    assert len(opt) == 2 and all(a.pressure is None for a in opt)
    assert json.loads(json.dumps(outcome.to_dict()))["best_variant"]["pressure"] is None


def test_analyses_are_the_distinct_anchors_and_the_best(tmp_path, vec_add_case, analyzed):
    case = dataclasses.replace(
        vec_add_case, native_text=with_cost(vec_add_case.native_text, 130000)
    )
    # Speedups 1, 13/10, 1/2 and 2: rounds anchor on v0, v1, v1; v3 wins.
    replies = [fenced(with_cost(GOOD_RVV, c)) for c in (130000, 100000, 260000, 65000)]
    outcome = run_task(case, Budgets(10, 3), deps_for(tmp_path, replies))
    assert outcome.best_variant.variant_id == 3
    codes = [v.code for v in outcome.variants]
    anchors = [codes[0], codes[1], codes[1]]
    assert analyzed == list(dict.fromkeys(anchors + [outcome.best_variant.code]))
    assert analyzed == [codes[0], codes[1], codes[3]]
    assert [v.pressure is not None for v in outcome.variants] == [True, True, False, True]


def test_broken_native_reference_still_yields_a_passing_outcome(tmp_path, vec_add_case):
    broken = dataclasses.replace(
        vec_add_case,
        native_text="/* mock-compile-error: native reference rotted */\n"
        + vec_add_case.native_text,
    )
    deps = deps_for(tmp_path, [fenced(GOOD_RVV), fenced(GOOD_RVV)])
    outcome = run_task(broken, Budgets(10, 1), deps)
    assert outcome.passed
    assert outcome.final_speedup is None
    assert any("native reference" in n for n in outcome.notes)


def test_attempt_log_reproducible_modulo_timestamps(tmp_path, vec_add_case):
    def one_run(run_dir: Path):
        deps = TaskDeps(
            client=ReplayClient([fenced(BAD_COMPILE), fenced(GOOD_RVV), fenced(GOOD_RVV)]),
            executor=MockExecutor(),
            log_dir=run_dir / "attempts",
        )
        run_task(vec_add_case, Budgets(10, 1), deps)
        log = run_dir / "attempts" / f"{vec_add_case.case_id}.ndjson"
        records = [json.loads(line) for line in log.read_text().splitlines()]
        for r in records:
            r["timestamp"] = None
        return records

    assert one_run(tmp_path / "r1") == one_run(tmp_path / "r2")


class ToolVanishes(MockExecutor):
    """Compiles once, then finds the compiler gone; notes what the log held then."""

    def __init__(self, log: Path):
        super().__init__()
        self.log = log
        self.compiles = 0
        self.logged_before_abort = None

    def compile_candidate(self, candidate_source, case, which_harness):
        self.compiles += 1
        if self.compiles > 1:
            self.logged_before_abort = self.log.read_text()
            raise ConfigurationError("compiler not runnable: cc vanished")
        return super().compile_candidate(candidate_source, case, which_harness)


def test_a_configuration_error_mid_case_leaves_a_complete_closed_log(tmp_path, vec_add_case):
    log = tmp_path / "attempts" / f"{vec_add_case.case_id}.ndjson"
    executor = ToolVanishes(log)
    deps = TaskDeps(
        client=ReplayClient([fenced(BAD_COMPILE), fenced(GOOD_RVV), fenced(GOOD_RVV)]),
        executor=executor,
        log_dir=tmp_path / "attempts",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigurationError, match="cc vanished"):
            run_task(vec_add_case, Budgets(10, 1), deps)
        gc.collect()  # an unclosed log would warn when collected
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    # The first attempt's record was on disk before the second attempt began.
    assert executor.logged_before_abort == log.read_text()
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(r["attempt_no"], r["compile_ok"]) for r in records] == [(1, False)]


# --- select_best ----------------------------------------------------------

def _variant(vid, speedup=None):
    perf = None
    if speedup is not None:
        s = Fraction(speedup)
        perf = PerfResult(
            translated_cost_ns=s.denominator * 10000,
            native_cost_ns=s.numerator * 10000,
        )
    return Variant(variant_id=vid, code=f"// v{vid}", perf=perf)


def test_select_best_prefers_highest_speedup():
    v = [_variant(0, 1), _variant(1, Fraction(13, 10)), _variant(2, Fraction(9, 10))]
    assert select_best(v).variant_id == 1


def test_select_best_measured_beats_unmeasured():
    v = [_variant(0, None), _variant(1, Fraction(6, 10))]
    assert select_best(v).variant_id == 1


def test_select_best_tie_goes_to_earliest():
    v = [_variant(0, Fraction(12, 10)), _variant(1, Fraction(12, 10))]
    assert select_best(v).variant_id == 0


def test_select_best_all_unmeasured_keeps_baseline():
    v = [_variant(0, None), _variant(1, None)]
    assert select_best(v).variant_id == 0


def test_select_best_empty_is_a_contract_violation():
    with pytest.raises(ValueError):
        select_best([])
