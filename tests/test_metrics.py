import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import speedup
from vecport.errors import VecportError
from vecport.metrics import (
    MetricsReport,
    OutcomeSummary,
    bucket_of,
    efficiency_score,
    indented_json,
    pass_rate,
    render_table,
)


def outcome(case_id, passed=True, attempts=1, sp=None):
    return OutcomeSummary(
        case_id=case_id,
        passed=passed,
        attempts_used=attempts,
        final_speedup=Fraction(sp) if sp is not None else None,
    )


# --- pass rate -------------------------------------------------------------

def test_pass_rate_32_of_34():
    outcomes = [outcome(f"c{i}") for i in range(32)]
    outcomes += [outcome("f1", passed=False, attempts=10), outcome("f2", passed=False, attempts=10)]
    rate = pass_rate(outcomes)
    assert rate == Fraction(3200, 34)
    assert f"{float(rate):.1f}" == "94.1"


def test_pass_rate_all_and_none():
    full = [outcome(f"c{i}") for i in range(34)]
    assert pass_rate(full) == 100
    empty = [outcome(f"c{i}", passed=False, attempts=10) for i in range(34)]
    assert pass_rate(empty) == 0
    with pytest.raises(VecportError):
        pass_rate([])


# --- efficiency score ---------------------------------------------------------

def test_efficiency_single_case_extremes():
    assert efficiency_score([outcome("a", attempts=1)]) == 1
    assert efficiency_score([outcome("a", attempts=10)]) == Fraction(1, 10)


def test_efficiency_34_cases_attempts_summing_to_65():
    rng = random.Random(42)
    attempts = [1] * 34
    remaining = 65 - 34
    while remaining:
        i = rng.randrange(34)
        if attempts[i] < 10:
            attempts[i] += 1
            remaining -= 1
    outcomes = [outcome(f"c{i}", attempts=a) for i, a in enumerate(attempts)]
    score = efficiency_score(outcomes, up_limit=10)
    assert score == Fraction(34 * 11 - 65, 10)
    assert score == Fraction(309, 10)  # 30.9 exactly
    avg = Fraction(sum(attempts), 34)
    assert round(float(avg), 2) == 1.91


def test_efficiency_failed_case_conventions():
    outcomes = [outcome("good", attempts=1), outcome("bad", passed=False, attempts=10)]
    included = efficiency_score(outcomes, up_limit=10, include_failed=True)
    assert included == 1 + Fraction(1, 10)
    excluded = efficiency_score(outcomes, up_limit=10, include_failed=False)
    assert excluded == 1


def test_efficiency_rejects_out_of_range_attempts():
    with pytest.raises(VecportError):
        efficiency_score([outcome("a", attempts=11)], up_limit=10)
    with pytest.raises(VecportError):
        efficiency_score([outcome("a", attempts=0)], up_limit=10)


def test_efficiency_normalized_identity():
    # score / n_passed lands in (0, 1], hitting 1 only for all-first-try runs
    outcomes = [outcome(f"c{i}", attempts=1) for i in range(5)]
    assert efficiency_score(outcomes) / 5 == 1
    outcomes[0] = outcome("c0", attempts=4)
    assert 0 < efficiency_score(outcomes) / 5 < 1


# --- speedup -------------------------------------------------------------------

def test_speedup_values():
    assert speedup(100000, 100000) == 1
    assert speedup(593, 100) == Fraction(593, 100)  # the 5.93x headline shape
    assert float(speedup(593, 100)) == 5.93
    assert speedup(100000, 200000) == Fraction(1, 2)


# --- buckets ----------------------------------------------------------------

@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(49, 100), "<0.5"),
        (Fraction(1, 2), "0.5-0.9"),
        (Fraction(89, 100), "0.5-0.9"),
        (Fraction(9, 10), "0.9-1.1"),
        (Fraction(1), "0.9-1.1"),
        (Fraction(11, 10), "0.9-1.1"),
        (Fraction(111, 100), "1.1-2.0"),
        (Fraction(2), "1.1-2.0"),
        (Fraction(201, 100), ">2.0"),
        (Fraction(593, 100), ">2.0"),
    ],
)
def test_bucket_edges(value, expected):
    assert bucket_of(value) == expected


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value="1/1000", max_value=100))
def test_every_speedup_lands_in_exactly_one_bucket(value):
    assert sum(bucket_of(value) == b for b in
               ("<0.5", "0.5-0.9", "0.9-1.1", "1.1-2.0", ">2.0")) == 1


# --- report ----------------------------------------------------------------

SAMPLE = [
    outcome("alpha", attempts=1, sp="13/10"),
    outcome("beta", attempts=3, sp=1),
    outcome("gamma", passed=False, attempts=10),
]


def test_report_rows_and_summary():
    text = render_table(SAMPLE, MetricsReport.from_outcomes(SAMPLE))
    lines = text.splitlines()
    assert sum(1 for ln in lines if ln.startswith(("alpha", "beta", "gamma"))) == 3
    assert any("pass rate: 66.7%" in ln for ln in lines)
    assert any("speedup buckets:" in ln for ln in lines)


def test_report_renders_empty_buckets_as_zero():
    text = render_table(SAMPLE, MetricsReport.from_outcomes(SAMPLE))
    assert "<0.5: 0" in text
    assert ">2.0: 0" in text


def test_report_invariant_under_reordering():
    shuffled = list(SAMPLE)
    random.Random(3).shuffle(shuffled)
    a = MetricsReport.from_outcomes(SAMPLE)
    b = MetricsReport.from_outcomes(shuffled)
    assert a == b


def test_report_exact_fields():
    report = MetricsReport.from_outcomes(SAMPLE)
    assert report.n_total == 3
    assert report.n_passed == 2
    assert report.pass_rate == Fraction(200, 3)
    assert report.efficiency_score == Fraction(10, 10) + Fraction(8, 10) + Fraction(1, 10)
    assert report.avg_attempts == Fraction(4, 2)
    assert report.speedups == {"alpha": Fraction(13, 10), "beta": Fraction(1)}
    assert report.speedup_buckets["1.1-2.0"] == 1
    assert report.speedup_buckets["0.9-1.1"] == 1


def test_report_requires_outcomes():
    with pytest.raises(VecportError):
        MetricsReport.from_outcomes([])


def test_outcome_summary_from_record_checks_field_types():
    record = {"case_id": "a", "passed": True, "attempts_used": 2, "final_speedup": "13/10"}
    assert OutcomeSummary.from_record(record) == outcome("a", attempts=2, sp="13/10")
    assert OutcomeSummary.from_record(
        {"case_id": "a", "passed": False, "attempts_used": 10}
    ) == outcome("a", passed=False, attempts=10)
    for bad in ([], {"case_id": 1}, {**record, "passed": 1}, {**record, "attempts_used": "2"},
                {**record, "attempts_used": True}, {**record, "attempts_used": 0},
                {**record, "attempts_used": -1}, {**record, "final_speedup": 1.3},
                {**record, "final_speedup": "fast"}):
        with pytest.raises(ValueError):
            OutcomeSummary.from_record(bad)



_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_JSON)
def test_indented_json_matches_json_dumps(value):
    assert indented_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_indented_json_writes_int_keys_and_tuples_as_json_does():
    value = {2: (1, {}), 10: [[], {"b": None}]}
    assert indented_json(value) == json.dumps(value, indent=2, sort_keys=True)
