"""Seeded workload generator: corpus, replay script and expected outcomes.

``generate(workload, seed, dest)`` writes everything a run feeds the
pipeline, and nothing else:

    dest/corpus/<case>/...   cloned cases (mock workloads only)
    dest/replay.json         per-case replay script for ``--replay``
    dest/expected.json       each case's expected outcome, and the translate budget

The expected outcome of a case follows from the replies the generator put in
its replay script, through a model of the FSM in ``expected_outcome``; it is
never taken from an earlier run. The same workload and seed give
byte-identical files.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import kernels

# translate --no-exec uses MockExecutor's defaults: an unmarked native
# reference costs this many nanoseconds.
MOCK_NATIVE_COST_NS = 100_000

# A reply kind decides how far an attempt gets through the FSM.
NOCODE, COMPILE, TEST, PASS = "nocode", "compile", "test", "pass"


@dataclass(frozen=True)
class Workload:
    name: str
    mock: bool           # MockExecutor (--no-exec) or the real CommandExecutor
    copies: int          # clones of each bundled case; 0 = the bundled corpus itself
    translate_max: int
    optimize_max: int
    vlens: tuple[int, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mock_optimize", mock=True, copies=2, translate_max=10, optimize_max=10,
                 vlens=(128, 256)),
        Workload("mock_repair", mock=True, copies=40, translate_max=4, optimize_max=2,
                 vlens=(128, 256, 512)),
        Workload("host_exec", mock=False, copies=0, translate_max=2, optimize_max=1,
                 vlens=(128, 256)),
    )
}


@dataclass
class CasePlan:
    """The replies scripted for one case, and what the executor makes of them."""

    base: str
    translate: list[tuple[str, str]]   # (kind, reply text)
    optimize: list[tuple[str, str]]
    costs: list[int]                   # mock cost of v0 and of each passing variant


def expected_outcome(plan: CasePlan, workload: Workload) -> dict:
    """The outcome the FSM must produce from ``plan``'s replies.

    Translation attempts run until one passes or the budget is spent. Each
    optimization round consumes one reply; when the script runs out, the
    round that found it empty is the last. A reply with no code stops after
    the Translate or Optimize step, a compile error after the compile step, a test
    failure after the test step. The best variant is the first one with the
    strictly highest speedup (lowest cost).
    """
    trace = ["Init"]
    attempts_used = None
    for attempt_no, (kind, _) in enumerate(plan.translate, start=1):
        trace += _steps(kind, ("Translate", "Compile", "FuncTest"))
        if kind == PASS:
            attempts_used = attempt_no
            break
    if attempts_used is None:
        return {"passed": False, "attempts_used": workload.translate_max,
                "fsm_trace": trace + ["Failed"], "final_speedup": None}
    trace.append("BaselinePerf")
    for round_no in range(workload.optimize_max):
        if round_no == len(plan.optimize):
            trace.append("Optimize")
            break
        kind = plan.optimize[round_no][0]
        trace += _steps(kind, ("Optimize", "OptCompile", "OptTest"))
        if kind == PASS:
            trace.append("OptPerf")
    trace += ["SelectBest", "Done"]
    speedup = None
    if workload.mock:
        speedup = str(Fraction(MOCK_NATIVE_COST_NS, min(plan.costs)))
    return {"passed": True, "attempts_used": attempts_used, "fsm_trace": trace,
            "final_speedup": speedup}


def _steps(kind: str, states: tuple[str, str, str]) -> list[str]:
    return list(states[: {NOCODE: 1, COMPILE: 2, TEST: 3, PASS: 3}[kind]])


def _reply(code: str) -> str:
    return f"Here is the RVV implementation.\n\n```c\n{code}```\n"


def _marked(code: str, *markers: str) -> str:
    return "".join(f"/* {m} */\n" for m in markers) + code


def _nocode_reply(rng: random.Random, base: str) -> str:
    reasons = (
        "the tail handling still needs a vsetvl per iteration",
        "the widening step has no direct RVV equivalent at this LMUL",
        "I am not certain which tuple type the segment load returns",
    )
    return (f"I need to think more about {base}: {rng.choice(reasons)}. "
            "I will send the complete code in my next reply.")


def _compile_diagnostics(rng: random.Random, size: int) -> str:
    """A one-line compiler log of about ``size`` characters (mock markers
    end at the line break)."""
    names = ("vl2", "vlmax_e32", "__riscv_vadd_vv_i32m9", "acc_hi", "tail_vl")
    parts = []
    while sum(map(len, parts)) < size:
        line, col = rng.randint(5, 60), rng.randint(5, 40)
        name = rng.choice(names)
        parts.append(f"candidate.c:{line}:{col}: error: '{name}' undeclared "
                     f"(first use in this function); note: each undeclared identifier "
                     f"is reported only once for each function it appears in. ")
    return "".join(parts)


def _mock_cost(rng: random.Random, best: int) -> int:
    """Next candidate's cost: usually an improvement on ``best``."""
    if rng.random() < 0.8:
        return max(1, int(best * rng.uniform(0.80, 0.98)))
    return int(best * rng.uniform(1.01, 1.30))


def _plan_mock_optimize(rng: random.Random, base: str, w: Workload) -> CasePlan:
    shape = kernels.SHAPES[base]
    plan = CasePlan(base, [], [], [])
    for _ in range(rng.choices((0, 1, 2), weights=(5, 3, 2))[0]):
        kind = rng.choice((COMPILE, TEST))
        marker = ("mock-compile-error: " + _compile_diagnostics(rng, 300) if kind == COMPILE
                  else f"mock-test-fail: vlen={rng.choice(w.vlens)} mismatch at n=17")
        plan.translate.append((kind, _reply(_marked(kernels.kernel(base, 1, shape.native_lmul),
                                                    marker))))
    cost = int(MOCK_NATIVE_COST_NS * rng.uniform(0.9, 1.3))
    plan.costs.append(cost)
    plan.translate.append((PASS, _reply(_marked(kernels.kernel(base, 1, shape.native_lmul),
                                                f"mock-cost: {cost}"))))
    # Candidates grow geometrically from the native size to past 200
    # statements, while LMUL drifts upward.
    final = rng.randint(205, 225)
    best = cost
    for round_no in range(1, w.optimize_max + 1):
        target = round(10 * (final / 10) ** (round_no / w.optimize_max))
        idx = min(len(shape.lmuls) - 1,
                  int(round_no * len(shape.lmuls) / w.optimize_max + rng.random()))
        lmul = shape.lmuls[idx]
        cost = _mock_cost(rng, best)
        best = min(best, cost)
        plan.costs.append(cost)
        code = kernels.kernel(base, kernels.unroll_for(base, lmul, target), lmul)
        plan.optimize.append((PASS, _reply(_marked(code, f"mock-cost: {cost}"))))
    return plan


def _plan_mock_repair(rng: random.Random, base: str, w: Workload) -> CasePlan:
    shape = kernels.SHAPES[base]

    def failing(kind: str) -> str:
        if kind == NOCODE:
            return _nocode_reply(rng, base)
        if kind == COMPILE:
            marker = "mock-compile-error: " + _compile_diagnostics(rng, rng.randint(2_000, 14_000))
        else:  # fails at one VLEN only
            marker = (f"mock-test-fail: vlen={rng.choice(w.vlens[1:])} overwrote past the end "
                      f"at n={rng.randint(3, 999)}")
        return _reply(_marked(kernels.kernel(base, rng.choice((1, 2)), shape.native_lmul), marker))

    plan = CasePlan(base, [], [], [])
    kinds = (NOCODE, COMPILE, TEST)
    if rng.random() < 0.3:  # exhausts the translate budget
        plan.translate = [(k, failing(k)) for k in rng.choices(kinds, k=w.translate_max)]
        return plan
    n_failures = rng.choices(range(w.translate_max), weights=(3, 7, 6, 4))[0]
    plan.translate = [(k, failing(k)) for k in rng.choices(kinds, k=n_failures)]
    best = int(MOCK_NATIVE_COST_NS * rng.uniform(0.9, 1.3))
    plan.costs.append(best)
    plan.translate.append((PASS, _reply(_marked(kernels.kernel(base, 1, shape.native_lmul),
                                                f"mock-cost: {best}"))))
    n_rounds = rng.choices(range(w.optimize_max + 1), weights=(2, 5, 3))[0]
    for kind in rng.choices((PASS, COMPILE, TEST, NOCODE), weights=(4, 3, 2, 1), k=n_rounds):
        if kind == PASS:
            cost = _mock_cost(rng, best)
            best = min(best, cost)
            plan.costs.append(cost)
            reply = _reply(_marked(kernels.kernel(base, 2, shape.native_lmul),
                                   f"mock-cost: {cost}"))
        else:
            reply = failing(kind)
        plan.optimize.append((kind, reply))
    return plan


def _compile_error_kernel(rng: random.Random, base: str) -> str:
    """A real compile error: the loop bound names an undeclared variable."""
    name = rng.choice(("remaining", "len", "count", "avl"))
    code = kernels.kernel(base, 1, kernels.SHAPES[base].native_lmul)
    return code.replace("(n > 0)", f"({name} > 0)", 1)


def _plans_host_exec(rng: random.Random, w: Workload) -> dict[str, CasePlan]:
    """Every bundled case once, each with one failed attempt, the native-shaped
    candidate, and one optimization round unrolled 2 or 4 times. Seeds
    differ in content, but hardly in the compiles and runs they cost. The
    failed attempt is a lane-count candidate for two of the three cases that
    have one, and a real compile error for the rest."""
    lane_capable = [b for b in kernels.BASE_CASES if kernels.lane_count_kernel(b)]
    with_lane = set(rng.sample(lane_capable, 2))
    plans = {}
    for base in kernels.BASE_CASES:
        lmul = kernels.SHAPES[base].native_lmul
        failed = ((TEST, kernels.lane_count_kernel(base)) if base in with_lane
                  else (COMPILE, _compile_error_kernel(rng, base)))
        plans[base] = CasePlan(
            base,
            translate=[(failed[0], _reply(failed[1])),
                       (PASS, _reply(kernels.kernel(base, 1, lmul)))],
            optimize=[(PASS, _reply(kernels.kernel(base, rng.choice((2, 4)), lmul)))],
            costs=[],
        )
    return plans


def _clone_case(src: Path, dest: Path, case_id: str) -> None:
    dest.mkdir(parents=True)
    for f in sorted(src.iterdir()):
        if f.name == "manifest.txt":
            text = f.read_text().replace(f'id = "{src.name}"', f'id = "{case_id}"', 1)
            (dest / f.name).write_text(text)
        else:
            shutil.copyfile(f, dest / f.name)


def generate(workload: str, seed: int, dest: Path, bundled: Path) -> Workload:
    """Write the workload's inputs under ``dest`` (which must not exist)."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    dest.mkdir(parents=True)
    if w.mock:
        plan_fn = _plan_mock_optimize if w.name == "mock_optimize" else _plan_mock_repair
        plans = {}
        for base in kernels.BASE_CASES:
            for copy in range(w.copies):
                case_id = f"{base}_{copy:03d}"
                _clone_case(bundled / base, dest / "corpus" / case_id, case_id)
                plans[case_id] = plan_fn(rng, base, w)
    else:
        plans = _plans_host_exec(rng, w)
    replay = {cid: [text for _, text in p.translate + p.optimize] for cid, p in plans.items()}
    expected = {
        "translate_max": w.translate_max,
        "cases": {cid: expected_outcome(p, w) for cid, p in plans.items()},
    }
    (dest / "replay.json").write_text(json.dumps(replay, indent=1, sort_keys=True) + "\n")
    (dest / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return w
