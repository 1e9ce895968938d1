"""Correctness check of one ``vecport translate`` output directory.

A case's outcome is ``passed``, ``attempts_used``, ``fsm_trace`` and, on the
mock workloads, ``final_speedup``; each must equal the generator's
expectation. ``report.json`` must equal the corpus metrics recomputed here,
independently of ``vecport.metrics``, from the expected outcomes. Where real
timings decide the speedups (host execution), a passed case must carry a
positive speedup and the report's speedup-dependent fields are not compared.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

OUTCOME_FIELDS = ("passed", "attempts_used", "fsm_trace")


def _frac(value) -> Fraction | None:
    return None if value is None else Fraction(value)


def _bucket(x: Fraction) -> str:
    if x < Fraction(1, 2):
        return "<0.5"
    if x < Fraction(9, 10):
        return "0.5-0.9"
    if x <= Fraction(11, 10):
        return "0.9-1.1"
    if x <= 2:
        return "1.1-2.0"
    return ">2.0"


def expected_report(cases: dict[str, dict], up_limit: int) -> dict:
    """Metrics of ``cases`` (failed cases included, as translate's default)."""
    passing = [c for c in cases.values() if c["passed"]]
    n_failed = len(cases) - len(passing)
    speedups = {cid: Fraction(c["final_speedup"]) for cid, c in cases.items()
                if c.get("final_speedup") is not None}
    buckets = {b: 0 for b in ("<0.5", "0.5-0.9", "0.9-1.1", "1.1-2.0", ">2.0")}
    for s in speedups.values():
        buckets[_bucket(s)] += 1
    return {
        "format": "vecport-metrics-v1",
        "n_total": len(cases),
        "n_passed": len(passing),
        "pass_rate": Fraction(100 * len(passing), len(cases)),
        "efficiency_score": sum(
            (Fraction(1 + up_limit - c["attempts_used"], up_limit) for c in passing),
            Fraction(n_failed, up_limit),
        ),
        "avg_attempts": Fraction(sum(c["attempts_used"] for c in passing), len(passing))
        if passing else None,
        "speedups": speedups,
        "speedup_buckets": buckets,
        "up_limit": up_limit,
        "include_failed": True,
    }


def _parsed_report(data: dict) -> dict:
    out = dict(data)
    for key in ("pass_rate", "efficiency_score", "avg_attempts"):
        out[key] = _frac(data.get(key))
    out["speedups"] = {k: Fraction(v) for k, v in data.get("speedups", {}).items()}
    return out


def check_outcome(case_id: str, got: dict, want: dict, exact_speedup: bool) -> list[str]:
    """Mismatches between one outcome file's content and its expectation."""
    errors = [
        f"{case_id}: {field} is {got.get(field)!r}, expected {want[field]!r}"
        for field in OUTCOME_FIELDS
        if got.get(field) != want[field]
    ]
    speedup = _frac(got.get("final_speedup"))
    if exact_speedup:
        if speedup != _frac(want["final_speedup"]):
            errors.append(f"{case_id}: final_speedup is {got.get('final_speedup')!r}, "
                          f"expected {want['final_speedup']!r}")
    elif want["passed"] and (speedup is None or speedup <= 0):
        errors.append(f"{case_id}: passed without a positive measured speedup")
    return errors


def check_run(out_dir: Path, expected: dict, exact_speedup: bool) -> tuple[set[str], list[str]]:
    """Check a translate output directory against the expectations.

    Returns the ids of cases whose outcome is wrong or missing, and every
    error found, report errors included.
    """
    wrong: set[str] = set()
    errors: list[str] = []
    cases = expected["cases"]
    for case_id, want in sorted(cases.items()):
        path = out_dir / "outcomes" / f"{case_id}.json"
        try:
            got = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            wrong.add(case_id)
            errors.append(f"{case_id}: no readable outcome ({exc})")
            continue
        case_errors = check_outcome(case_id, got, want, exact_speedup)
        if case_errors:
            wrong.add(case_id)
            errors += case_errors
    try:
        report = _parsed_report(json.loads((out_dir / "report.json").read_text()))
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        return wrong, errors + [f"report.json unreadable: {exc}"]
    want_report = expected_report(cases, expected["translate_max"])
    if not exact_speedup:
        for key in ("speedups", "speedup_buckets"):
            del want_report[key]
        if set(report.get("speedups", {})) != {c for c, w in cases.items() if w["passed"]}:
            errors.append("report.json: speedups do not cover exactly the passed cases")
    for key, want in want_report.items():
        if report.get(key) != want:
            errors.append(f"report.json: {key} is {report.get(key)!r}, expected {want!r}")
    return wrong, errors
