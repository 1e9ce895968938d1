"""Acceptance criteria, one test per criterion, each printing a verdict line.

Everything is exact arithmetic or deterministic replay; the only
environment-gated piece is the final smoke test, which needs a real RISC-V
cross-compiler and emulator and skips cleanly without them.
"""

import dataclasses
import json
import random
import shutil
import time
from fractions import Fraction

import pytest

from conftest import random_ir, speedup, straight_line_ir
from oracles import live_sets, oracle_liveness, print_function
from vecport.corpus import bundled_corpus_dir, load_corpus, validate_case
from vecport.errors import ParseError
from vecport.executors import CommandExecutor, MockExecutor, ToolchainConfig
from vecport.liveness import check_fixpoint, compute_pressure, solve_liveness
from vecport.llm_client import ReplayClient
from vecport.metrics import efficiency_score, pass_rate
from vecport.metrics import OutcomeSummary
from vecport.orchestrator import Budgets, FsmState, TaskDeps, run_task, select_best
from vecport.parser import parse_function
from vecport.rvv_types import iter_vector_types, parse_vector_type

S = FsmState
M2 = "vint32m2_t"


def _verdict(n, text):
    print(f"[criterion {n}] PASS - {text}")


def test_criterion_1_liveness_oracle_equivalence():
    started = time.monotonic()
    n_cfgs = 120
    for seed in range(n_cfgs):
        ir = random_ir(random.Random(seed))
        live = solve_liveness(ir)
        check_fixpoint(ir, live)  # IN(i) == (OUT(i) - DEF(i)) | USE(i) exactly
        oracle, named = oracle_liveness(ir), live_sets(live)
        assert oracle.live_in == named.live_in, f"seed {seed}"
        assert oracle.live_out == named.live_out, f"seed {seed}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _verdict(1, f"solver == oracle on {n_cfgs} random CFGs in {elapsed:.2f}s")


def test_criterion_2_pressure_formula():
    # three m2 values simultaneously live in a straight line
    ir = straight_line_ir(
        [
            (set(), {"a"}),
            (set(), {"b"}),
            ({"a", "b"}, {"c"}),
            ({"c"}, set()),
        ],
        {"a": M2, "b": M2, "c": M2},
    )
    report = compute_pressure(ir, solve_liveness(ir))
    assert report.pressure == 6
    assert report.hot_stmt == 2
    assert not report.spills_predicted

    # seventeen m2 values forced live at once: 34 > the 32-register file
    specs = [(set(), {f"v{i}"}) for i in range(17)]
    specs.append(({f"v{i}" for i in range(17)}, set()))
    hog = straight_line_ir(specs, {f"v{i}": M2 for i in range(17)})
    hog_report = compute_pressure(hog, solve_liveness(hog))
    assert hog_report.pressure == 34
    assert hog_report.spills_predicted
    assert hog_report.to_dict()["register_budget"] == 32
    _verdict(2, "peak 6 at the combine; 17x m2 gives 34 with spills predicted")


def test_criterion_3_metric_consistency():
    attempts = [1] * 34
    remaining = 65 - 34
    rng = random.Random(1)
    while remaining:
        i = rng.randrange(34)
        if attempts[i] < 10:
            attempts[i] += 1
            remaining -= 1
    all_passing = [
        OutcomeSummary(f"case{i:02d}", True, a) for i, a in enumerate(attempts)
    ]
    score = efficiency_score(all_passing, up_limit=10)
    assert score == Fraction(309, 10)  # exactly 30.9
    avg = Fraction(sum(attempts), 34)
    assert round(float(avg), 2) == 1.91

    mostly = [OutcomeSummary(f"c{i}", True, 1) for i in range(32)]
    mostly += [OutcomeSummary("f0", False, 10), OutcomeSummary("f1", False, 10)]
    rate = pass_rate(mostly)
    assert rate == Fraction(3200, 34)
    assert f"{float(rate):.1f}" == "94.1"
    _verdict(3, "34 passes summing 65 attempts -> 30.9; 32/34 -> 94.1%")


def test_criterion_4_speedup_formula():
    assert speedup(593, 100) == Fraction(593, 100)
    assert float(speedup(593, 100)) == 5.93
    assert speedup(123456, 123456) == 1
    _verdict(4, "5.93 for a 5.93:1 cost ratio and 1.0 for equal costs")


GOOD_RVV = (bundled_corpus_dir() / "vec_add" / "native.c").read_text()
BAD_COMPILE = "/* mock-compile-error: error: no matching intrinsic */\nvoid x(void) {}\n"


def _fenced(code):
    return f"```c\n{code}```"


def _with_cost(code, cost):
    return f"/* mock-cost: {cost} */\n{code}"


def _vec_add_case():
    listing = load_corpus(bundled_corpus_dir())
    (manifest,) = [m for m in listing.manifests if m.case_id == "vec_add"]
    return validate_case(manifest)


def _run(tmp_path, responses, budgets, case=None):
    deps = TaskDeps(
        client=ReplayClient(responses),
        executor=MockExecutor(),
        log_dir=tmp_path / "attempts",
    )
    outcome = run_task(case or _vec_add_case(), budgets, deps)
    return outcome, deps


def test_criterion_5a_fsm_trace_success_on_attempt_three(tmp_path):
    responses = [
        _fenced(BAD_COMPILE),
        _fenced(BAD_COMPILE),
        _fenced(GOOD_RVV),
        _fenced(GOOD_RVV),
    ]
    outcome, _ = _run(tmp_path / "a", responses, Budgets(10, 1))
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
    _verdict("5a", "attempt-3 success walks the exact state sequence")


def test_criterion_5b_budget_exhaustion(tmp_path):
    outcome, deps = _run(tmp_path, [_fenced(BAD_COMPILE)] * 10, Budgets(10, 10))
    assert not outcome.passed
    assert deps.client.calls_made == 10
    assert outcome.fsm_trace[-1] == S.FAILED
    _verdict("5b", "10 compile failures -> Failed after exactly 10 LLM calls")


def test_criterion_5c_optimized_variant_beats_baseline(tmp_path):
    responses = [
        _fenced(_with_cost(GOOD_RVV, 130000)),
        _fenced(_with_cost(GOOD_RVV, 100000)),
    ]
    case = _vec_add_case()
    case = dataclasses.replace(case, native_text=_with_cost(case.native_text, 130000))
    outcome, _ = _run(tmp_path, responses, Budgets(10, 1), case)
    assert outcome.passed
    assert outcome.variants[0].perf.speedup == 1
    assert outcome.best_variant.variant_id == 1
    assert outcome.final_speedup == Fraction(13, 10)
    assert select_best(outcome.variants).variant_id == 1
    _verdict("5c", "speedup 1.3 optimized variant selected over the 1.0 baseline")


def test_criterion_5_logs_reproducible_modulo_timestamps(tmp_path):
    def one(label):
        root = tmp_path / label
        responses = [_fenced(BAD_COMPILE), _fenced(GOOD_RVV), _fenced(GOOD_RVV)]
        _run(root, responses, Budgets(10, 1))
        log = root / "attempts" / "vec_add.ndjson"
        records = [json.loads(ln) for ln in log.read_text().splitlines()]
        for r in records:
            r["timestamp"] = None
        return json.dumps(records, sort_keys=True)

    assert one("run1") == one("run2")
    _verdict(5, "replayed pipeline logs are byte-identical modulo timestamps")


def test_criterion_6_parser_round_trip_and_type_grammar():
    names = [t.name() for t in iter_vector_types()]
    assert len(names) > 100
    for name in names:
        t = parse_vector_type(name)
        assert t is not None and t.name() == name

    case = _vec_add_case()
    ir = parse_function(case.native_text, case.function_signature)
    loop = {**{i: (i + 1,) for i in range(9)}, 9: (0,)}  # header s0, back edge from s9
    assert ir.successors == loop
    ir2 = parse_function(print_function(case.native_text, case.function_signature),
                         case.function_signature)
    assert ir2.successors == loop
    assert [(s.uses, s.defs) for s in ir.stmts] == [(s.uses, s.defs) for s in ir2.stmts]

    with pytest.raises(ParseError) as err:
        parse_function("void f(void) {\n    goto x;\n}", "f")
    assert "goto" in str(err.value) and "line 2" in str(err.value)
    _verdict(6, f"{len(names)} type names round-trip; 10-statement loop; goto located")


def _find_cross_tools():
    cc = next(
        (
            t
            for t in (
                "riscv64-linux-gnu-gcc",
                "riscv64-unknown-linux-gnu-gcc",
                "riscv64-unknown-elf-gcc",
            )
            if shutil.which(t)
        ),
        None,
    )
    runner = next(
        (t for t in ("qemu-riscv64", "qemu-riscv64-static") if shutil.which(t)),
        None,
    )
    return cc, runner


CROSS_CC, CROSS_RUNNER = _find_cross_tools()


@pytest.mark.skipif(
    CROSS_CC is None or CROSS_RUNNER is None,
    reason="RISC-V cross-compiler and emulator not installed",
)
def test_criterion_7_end_to_end_smoke(tmp_path):
    started = time.monotonic()
    config = ToolchainConfig(
        cc=CROSS_CC,
        flags="-march=rv64gcv -O3 -static",
        runner=CROSS_RUNNER,
        vlens=(128, 256),
    )
    executor = CommandExecutor(config, tmp_path / "work")
    executor.probe()
    deps = TaskDeps(
        client=ReplayClient([_fenced(GOOD_RVV), _fenced(GOOD_RVV)]),
        executor=executor,
        log_dir=tmp_path / "attempts",
    )
    outcome = run_task(_vec_add_case(), Budgets(10, 1), deps)
    assert outcome.passed, outcome.notes
    assert outcome.best_variant.perf is not None
    assert outcome.best_variant.perf.speedup > 0
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _verdict(7, f"real toolchain smoke passed at VLEN 128/256 in {elapsed:.0f}s")
