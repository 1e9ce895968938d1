"""The benchmark's own tests: deterministic inputs, expectations that match
the pipeline, and a correctness check that catches wrong outcomes.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

import check
import kernels
import run
import workloads
from vecport.cli import main as vecport_main
from vecport.corpus import bundled_corpus_dir
from vecport.liveness import analyze_source

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    workloads.generate(name, 7, tmp_path / "a", bundled_corpus_dir())
    workloads.generate(name, 7, tmp_path / "b", bundled_corpus_dir())
    workloads.generate(name, 8, tmp_path / "c", bundled_corpus_dir())
    first = _tree(tmp_path / "a")
    assert first == _tree(tmp_path / "b")
    assert first["replay.json"] != _tree(tmp_path / "c")["replay.json"]


def _hand_checked_plan() -> tuple[workloads.CasePlan, workloads.Workload]:
    """vec_add: no code, a compile error, a test failure at VLEN 256, then a
    pass at cost 80000; then an improving variant (50000), a compile error,
    and a script that runs dry in the third of four optimization rounds."""
    w = workloads.Workload("hand", mock=True, copies=1, translate_max=4, optimize_max=4,
                           vlens=(128, 256))
    code = kernels.kernel("vec_add", 1, 2)

    def reply(*markers):
        return workloads._reply(workloads._marked(code, *markers))

    plan = workloads.CasePlan(
        "vec_add",
        translate=[
            (workloads.NOCODE, "Let me think about the tail first."),
            (workloads.COMPILE, reply("mock-compile-error: 'vl2' undeclared")),
            (workloads.TEST, reply("mock-test-fail: vlen=256 mismatch at n=17")),
            (workloads.PASS, reply("mock-cost: 80000")),
        ],
        optimize=[
            (workloads.PASS, workloads._reply(workloads._marked(
                kernels.kernel("vec_add", 4, 4), "mock-cost: 50000"))),
            (workloads.COMPILE, reply("mock-compile-error: bad LMUL")),
        ],
        costs=[80000, 50000],
    )
    return plan, w


HAND_CHECKED = {
    "passed": True,
    "attempts_used": 4,
    "fsm_trace": [
        "Init",
        "Translate",
        "Translate", "Compile",
        "Translate", "Compile", "FuncTest",
        "Translate", "Compile", "FuncTest",
        "BaselinePerf",
        "Optimize", "OptCompile", "OptTest", "OptPerf",
        "Optimize", "OptCompile",
        "Optimize",
        "SelectBest", "Done",
    ],
    "final_speedup": "2",
}


def _run_plan(tmp_path: Path, plan: workloads.CasePlan, w: workloads.Workload) -> Path:
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"vec_add": [t for _, t in plan.translate + plan.optimize]}))
    out = tmp_path / "out"
    rc = vecport_main([
        "translate", "--replay", str(replay), "--case", "vec_add", "--no-exec",
        "--translate-max", str(w.translate_max), "--optimize-max", str(w.optimize_max),
        "--vlens", ",".join(map(str, w.vlens)), "--out", str(out),
    ])
    assert rc == 0
    return out


def test_expected_outcome_matches_hand_checked_case(tmp_path):
    plan, w = _hand_checked_plan()
    assert workloads.expected_outcome(plan, w) == HAND_CHECKED
    out = _run_plan(tmp_path, plan, w)
    got = json.loads((out / "outcomes" / "vec_add.json").read_text())
    assert {k: got[k] for k in HAND_CHECKED} == HAND_CHECKED
    wrong, errors = check.check_run(out, {"translate_max": 4, "cases": {"vec_add": HAND_CHECKED}},
                                    exact_speedup=True)
    assert (wrong, errors) == (set(), [])


@pytest.mark.parametrize("field,value", [
    ("attempts_used", 3),
    ("passed", False),
    ("final_speedup", "5/2"),
    ("fsm_trace", HAND_CHECKED["fsm_trace"][:-1]),
])
def test_wrong_outcome_fails_the_check(tmp_path, field, value):
    plan, w = _hand_checked_plan()
    out = _run_plan(tmp_path, plan, w)
    path = out / "outcomes" / "vec_add.json"
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    expected = {"translate_max": 4, "cases": {"vec_add": HAND_CHECKED}}
    wrong, errors = check.check_run(out, expected, exact_speedup=True)
    assert wrong == {"vec_add"} and errors


def test_wrong_report_or_missing_outcome_fails_the_check(tmp_path):
    plan, w = _hand_checked_plan()
    out = _run_plan(tmp_path, plan, w)
    expected = {"translate_max": 4, "cases": {"vec_add": HAND_CHECKED}}
    report = json.loads((out / "report.json").read_text())
    report["efficiency_score"] = "1/2"
    (out / "report.json").write_text(json.dumps(report))
    assert check.check_run(out, expected, exact_speedup=True)[1]
    (out / "outcomes" / "vec_add.json").unlink()
    assert check.check_run(out, expected, exact_speedup=True)[0] == {"vec_add"}


def test_expected_report_is_the_metrics_definition():
    cases = {
        "a": {"passed": True, "attempts_used": 1, "final_speedup": "3"},
        "b": {"passed": True, "attempts_used": 4, "final_speedup": "1/2"},
        "c": {"passed": False, "attempts_used": 4, "final_speedup": None},
    }
    r = check.expected_report(cases, up_limit=4)
    assert r["pass_rate"] == Fraction(200, 3)
    # (1 + 4 - 1)/4 + (1 + 4 - 4)/4 + 1/4 for the failed case
    assert r["efficiency_score"] == Fraction(6, 4)
    assert r["avg_attempts"] == Fraction(5, 2)
    assert r["speedup_buckets"] == {"<0.5": 0, "0.5-0.9": 1, "0.9-1.1": 0, "1.1-2.0": 0,
                                    ">2.0": 1}


def _code_of(reply: str) -> str:
    return reply.split("```c\n", 1)[1].rsplit("```", 1)[0]


def test_mock_optimize_candidates_grow_past_200_statements_and_32_registers():
    plan = workloads._plan_mock_optimize(
        workloads.random.Random(3), "vec_add", workloads.WORKLOADS["mock_optimize"])
    sig = kernels.SHAPES["vec_add"].signature
    reports = [analyze_source(_code_of(t), sig) for _, t in plan.optimize]
    assert len(plan.optimize) == 10
    assert _code_of(plan.optimize[-1][1]).count(";") > 200
    assert reports[0].pressure * 2 <= 32  # headroom prompt
    assert reports[-1].spills_predicted  # spill prompt



def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 100)]).startswith("too few")
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == "p90 90 s"
    assert run.tail_percentile([float(i) for i in range(1, 1001)]) == "p99 990 s"


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
