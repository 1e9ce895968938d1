import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_ir, random_ir, straight_line_ir
from oracles import PathExplosionError, live_sets, oracle_liveness
from vecport.errors import AnalysisError
from vecport.liveness import analyze_source, check_fixpoint, compute_pressure, solve_liveness
from vecport.parser import parse_function
from vecport.rvv_types import FOOTPRINT_MODES, iter_vector_types, register_footprint

M2 = "vint32m2_t"

# Hand-applied dataflow equations on the straight-line example
#   s0: def a; s1: def b; s2: use {a,b} def c; s3: use {c}
# working backward from an empty exit:
#   IN(s3)={c} OUT(s3)={}; IN(s2)={a,b} OUT(s2)={c};
#   IN(s1)={a} OUT(s1)={a,b}; IN(s0)={} OUT(s0)={a}.
STRAIGHT_LINE = [
    (set(), {"a"}),
    (set(), {"b"}),
    ({"a", "b"}, {"c"}),
    ({"c"}, set()),
]
STRAIGHT_SYMBOLS = {"a": M2, "b": M2, "c": M2}
EXPECTED_IN = [set(), {"a"}, {"a", "b"}, {"c"}]
EXPECTED_OUT = [{"a"}, {"a", "b"}, {"c"}, set()]


def test_straight_line_matches_hand_computation():
    ir = straight_line_ir(STRAIGHT_LINE, STRAIGHT_SYMBOLS)
    live = live_sets(ir, solve_liveness(ir))
    for i in range(4):
        assert live.live_in[i] == EXPECTED_IN[i], f"IN(s{i})"
        assert live.live_out[i] == EXPECTED_OUT[i], f"OUT(s{i})"


def test_straight_line_pressure_peaks_at_the_combine():
    ir = straight_line_ir(STRAIGHT_LINE, STRAIGHT_SYMBOLS)
    report = compute_pressure(ir, solve_liveness(ir))
    # s2 holds {a, b, c} live at once, three m2 values
    assert report.pressure == 6
    assert report.hot_stmt == 2
    assert report.per_stmt_pressure[0] == 2
    assert report.per_stmt_pressure[1] == 4
    assert report.per_stmt_pressure[3] == 2
    assert dict(report.live_at_hot) == {"a": 2, "b": 2, "c": 2}
    assert not report.spills_predicted


def test_empty_function_has_empty_maps_and_zero_pressure():
    ir = make_ir([[]], {0: (1,)}, {})
    live = solve_liveness(ir)
    assert live.live_in == [] and live.live_out == []
    report = compute_pressure(ir, live)
    assert report.pressure == 0
    assert report.hot_stmt is None
    assert not report.spills_predicted


def test_loop_carried_accumulator_is_live_around_the_back_edge():
    # header uses acc; body uses {acc, x}, defs acc; back edge body -> header
    ir = make_ir(
        [
            [({"acc"}, set())],           # block 0: header
            [({"acc", "x"}, {"acc"})],    # block 1: body
        ],
        {0: (1, 2), 1: (0,)},
        {"acc": M2, "x": M2},
    )
    live = live_sets(ir, solve_liveness(ir))
    assert "acc" in live.live_in[0]
    assert "acc" in live.live_out[1]
    assert oracle_liveness(ir).live_in == live.live_in


def test_seventeen_live_m2_values_predict_spills():
    specs = [(set(), {f"v{i}"}) for i in range(17)]
    specs.append(({f"v{i}" for i in range(17)}, set()))
    ir = straight_line_ir(specs, {f"v{i}": M2 for i in range(17)})
    report = compute_pressure(ir, solve_liveness(ir))
    assert report.pressure == 34
    assert report.spills_predicted
    assert report.to_dict()["register_budget"] == 32


def test_fractional_lmul_pressure_stays_fractional_in_literal_mode():
    specs = [(set(), {"a"}), (set(), {"b"}), ({"a", "b"}, set())]
    ir = straight_line_ir(specs, {"a": "vint32mf2_t", "b": "vint32mf2_t"})
    live = solve_liveness(ir)
    literal = compute_pressure(ir, live, "literal")
    physical = compute_pressure(ir, live, "physical")
    assert literal.pressure == 1  # 1/2 + 1/2
    assert physical.pressure == 2


def test_hot_stmt_tie_breaks_to_smallest_id():
    specs = [(set(), {"a"}), ({"a"}, {"a"}), ({"a"}, set())]
    ir = straight_line_ir(specs, {"a": M2})
    report = compute_pressure(ir, solve_liveness(ir))
    assert report.per_stmt_pressure[0] == report.per_stmt_pressure[1] == 2
    assert report.hot_stmt == 0


def test_dead_def_contributes_nothing_but_is_reported():
    specs = [(set(), {"a"}), (set(), {"dead"}), ({"a"}, set())]
    ir = straight_line_ir(specs, {"a": M2, "dead": "vint32m4_t"})
    live = solve_liveness(ir)
    report = compute_pressure(ir, live)
    assert report.dead_defs == {"dead"}
    named = live_sets(ir, live)
    assert all("dead" not in named.live_in[i] | named.live_out[i] for i in range(3))
    assert report.pressure == 2


def _branch_and_join_ir():
    """s0 (def x) branches to s1 (use x, def y) and s2 (def y), which join at
    s3 (use y); s3 leaves the function. So s0 has two successors, s1 and
    s2 one each, and s3 none."""
    return make_ir(
        [[(set(), {"x"})], [({"x"}, {"y"})], [(set(), {"y"})], [({"y"}, set())]],
        {0: (1, 2), 1: (3,), 2: (3,), 3: (4,)},
        {"x": M2, "y": M2},
    )


# (statement, its successor count, the map corrupted, the name toggled there,
# where the check must fail). Toggling a name the statement uses or defines
# in its OUT set keeps its IN equation true, so only the OUT check at that
# statement can fail; a corrupted IN set is caught at the statement itself
# when nothing precedes it, and by its predecessor's OUT check otherwise.
_CORRUPTIONS = [
    (0, 2, "live_in", "y", "statement 0 (IN)"),
    (0, 2, "live_out", "x", "statement 0 (OUT)"),
    (1, 1, "live_in", "y", "statement 0 (OUT)"),
    (1, 1, "live_out", "y", "statement 1 (OUT)"),
    (3, 0, "live_in", "x", "statement 1 (OUT)"),
    (3, 0, "live_out", "y", "statement 3 (OUT)"),
]


@pytest.mark.parametrize(
    "stmt, n_succ, which, name, where", _CORRUPTIONS,
    ids=[f"{which}-at-{n}-successors" for _, n, which, _, _ in _CORRUPTIONS],
)
def test_compute_pressure_rejects_a_non_fixpoint(stmt, n_succ, which, name, where):
    ir = _branch_and_join_ir()
    assert len(ir.successors[stmt]) == n_succ
    live = solve_liveness(ir)
    check_fixpoint(ir, live)
    sets = getattr(live, which)
    sets[stmt] ^= 1 << list(ir.symbol_table).index(name)
    with pytest.raises(AnalysisError, match=re.escape(f"liveness not a fixpoint at {where}")):
        compute_pressure(ir, live)


def test_a_single_successor_shares_its_live_in_set():
    ir = _branch_and_join_ir()
    live = live_sets(ir, solve_liveness(ir))
    assert live.live_out[1] == live.live_in[3] and live.live_out[2] == live.live_in[3]
    assert live.live_out[0] == live.live_in[1] | live.live_in[2]


@pytest.mark.parametrize("source", [
    "void f(int n){ int a = n; }",
    "void f(vint32m1_t v, size_t vl){ g(v); }",
])
def test_an_unknown_footprint_mode_is_rejected_up_front(source):
    with pytest.raises(ValueError, match="^unknown footprint mode: 'bogus'$"):
        analyze_source(source, "f", "bogus")


# --- oracle ------------------------------------------------------------------

def test_oracle_matches_on_straight_line():
    ir = straight_line_ir(STRAIGHT_LINE, STRAIGHT_SYMBOLS)
    assert oracle_liveness(ir) == live_sets(ir, solve_liveness(ir))


def test_oracle_diamond_variable_live_only_into_its_branch():
    # block 0: cond (def x); block 1: then uses x; block 2: else no use;
    # block 3: join; 4: exit
    ir = make_ir(
        [
            [(set(), {"x"})],
            [({"x"}, set())],
            [(set(), set())],
            [(set(), set())],
        ],
        {0: (1, 2), 1: (3,), 2: (3,), 3: (4,)},
        {"x": M2},
    )
    live = oracle_liveness(ir)
    assert live.live_out[0] == {"x"}
    assert live.live_in[1] == {"x"}
    assert live.live_in[2] == set()
    assert live_sets(ir, solve_liveness(ir)).live_out == live.live_out


def test_oracle_self_loop_needs_one_unrolling():
    # Single block looping on itself: s0 defs x, s1 uses y defs y.
    ir = make_ir(
        [[(set(), {"x"}), ({"y", "x"}, {"y"})]],
        {0: (0, 1)},
        {"x": M2, "y": M2},
    )
    fixpoint = live_sets(ir, solve_liveness(ir))
    # Path bound of twice the statement count covers one unrolling.
    oracle = oracle_liveness(ir, path_bound=2 * len(ir.stmts) + 2)
    assert oracle.live_in == fixpoint.live_in
    assert oracle.live_out == fixpoint.live_out


def test_oracle_refuses_to_explode():
    rng = random.Random(7)
    ir = random_ir(rng)
    while len(ir.stmts) < 6:
        ir = random_ir(rng)
    with pytest.raises(PathExplosionError):
        oracle_liveness(ir, path_bound=10_000, max_steps=50)


# --- properties ----------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
@example(2871)  # 11-statement CFG whose paths outnumber the oracle's step bound
def test_property_solver_equals_oracle_and_fixpoint_holds(seed):
    ir = random_ir(random.Random(seed))
    live = solve_liveness(ir)
    check_fixpoint(ir, live)
    oracle = oracle_liveness(ir)
    named = live_sets(ir, live)
    assert oracle.live_in == named.live_in
    assert oracle.live_out == named.live_out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_property_order_independence(seed, order_seed):
    ir = random_ir(random.Random(seed))
    base = solve_liveness(ir)
    ids = [s.stmt_id for s in ir.stmts]
    random.Random(order_seed).shuffle(ids)
    shuffled = solve_liveness(ir, order=ids)
    assert shuffled.live_in == base.live_in
    assert shuffled.live_out == base.live_out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_property_adding_a_use_is_monotone(seed):
    rng = random.Random(seed)
    ir = random_ir(rng)
    if not ir.stmts:
        return
    base = solve_liveness(ir)
    base_pressure = compute_pressure(ir, base).pressure

    k = rng.choice([s.stmt_id for s in ir.stmts])
    var = rng.choice(sorted(ir.symbol_table))
    stmt = ir.stmts[k]
    ir.stmts[k] = type(stmt)(
        stmt_id=stmt.stmt_id,
        kind=stmt.kind,
        uses=stmt.uses | 1 << list(ir.symbol_table).index(var),
        defs=stmt.defs,
        line=stmt.line,
        tokens=stmt.tokens,
    )
    grown = solve_liveness(ir)
    before, after = live_sets(ir, base), live_sets(ir, grown)
    for i in before.live_in:
        assert before.live_in[i] <= after.live_in[i]
        assert before.live_out[i] <= after.live_out[i]
    assert compute_pressure(ir, grown).pressure >= base_pressure


ALL_TYPE_NAMES = tuple(t.name() for t in iter_vector_types())


def _fraction_sum_report(ir, live, mode):
    """What compute_pressure must report, from Fraction sums of footprints."""
    live = live_sets(ir, live)
    footprint = {n: register_footprint(t, mode) for n, t in ir.symbol_table.items()}
    per_stmt = {}
    for s in ir.stmts:
        total = Fraction(0)
        for name in live.live_in[s.stmt_id] | live.live_out[s.stmt_id]:
            total += footprint[name]
        per_stmt[s.stmt_id] = total
    peak = max(per_stmt.values(), default=Fraction(0))
    hot = min((i for i, p in per_stmt.items() if p == peak), default=None)
    live_at_hot = frozenset() if hot is None else frozenset(
        (n, footprint[n]) for n in live.live_in[hot] | live.live_out[hot]
    )
    defs = set().union(*(ir.names_in(s.defs) for s in ir.stmts))
    uses = set().union(*(ir.names_in(s.uses) for s in ir.stmts))
    as_dict = {
        "pressure": str(peak),
        "hot_stmt": hot,
        "spills_predicted": peak > 32,
        "register_budget": 32,
        "dead_defs": sorted(defs - uses),
        "mode": mode,
    }
    return per_stmt, peak, live_at_hot, as_dict


def _assert_matches_fraction_sum(ir, mode):
    live = solve_liveness(ir)
    report = compute_pressure(ir, live, mode)
    per_stmt, peak, live_at_hot, as_dict = _fraction_sum_report(ir, live, mode)
    assert report.per_stmt_pressure == per_stmt
    assert all(type(p) is Fraction for p in report.per_stmt_pressure.values())
    assert type(report.pressure) is Fraction and report.pressure == peak
    assert str(report.pressure) == str(peak)
    assert report.live_at_hot == live_at_hot
    assert report.to_dict() == as_dict
    return report


@pytest.mark.parametrize("mode", FOOTPRINT_MODES)
def test_every_vector_type_costs_its_footprint(mode):
    assert len(ALL_TYPE_NAMES) == 292
    for name in ALL_TYPE_NAMES:
        _assert_matches_fraction_sum(
            straight_line_ir([(set(), {"v"}), ({"v"}, set())], {"v": name}), mode
        )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_property_pressure_equals_a_fraction_sum_over_every_type(seed):
    ir = random_ir(random.Random(seed), types=ALL_TYPE_NAMES)
    for mode in FOOTPRINT_MODES:
        _assert_matches_fraction_sum(ir, mode)


WIDE_TYPES = ("vint32mf2_t", "vint32m1_t", "vint16mf4_t", "vint32m2_t", "vint8mf8_t",
              "vint32m4_t", "vfloat32m1_t")


def _wide_source(n_names):
    """A function with ``n_names`` vectors of mixed LMUL: all loaded, every
    third updated in a loop from another, every other stored after it, so
    some are live past the loop and some are never read."""
    lines = ["void wide(const int32_t *x, int32_t *y, size_t n) {",
             "    size_t vl = __riscv_vsetvl_e32m1(n);"]
    lines += [f"    {WIDE_TYPES[k % len(WIDE_TYPES)]} w{k} = load(x, vl);"
              for k in range(n_names)]
    lines.append("    for (size_t i = 0; i < n; i += vl) {")
    lines += [f"        w{k} = op(w{k}, w{(7 * k + 3) % n_names}, vl);"
              for k in range(0, n_names, 3)]
    lines.append("    }")
    lines += [f"    store(y, w{k}, vl);" for k in range(n_names - 1, 0, -2)]
    return "\n".join(lines + ["}"])


def test_live_sets_wider_than_a_machine_word():
    ir = parse_function(_wide_source(72), "wide")
    assert len(ir.symbol_table) == 72
    assert any(j <= i for i, nexts in ir.successors.items() for j in nexts)  # a back edge
    live = solve_liveness(ir)
    assert max(live.live_out).bit_length() > 64
    assert live_sets(ir, live) == oracle_liveness(ir)
    for mode in FOOTPRINT_MODES:
        report = _assert_matches_fraction_sum(ir, mode)
        assert report.hot_stmt is not None and report.dead_defs
        assert any(list(ir.symbol_table).index(name) >= 64 for name, _ in report.live_at_hot)


def test_successors_skip_empty_blocks():
    ir = make_ir(
        [[(set(), {"x"})], [], [({"x"}, set())]],
        {0: (1,), 1: (2,), 2: (3,)},
        {"x": M2},
    )
    assert ir.successors[0] == (1,)  # hops across the empty block


def test_parsed_loop_example_end_to_end(vec_add_case):
    ir = parse_function(vec_add_case.native_text, vec_add_case.function_signature)
    live = solve_liveness(ir)
    check_fixpoint(ir, live)
    report = compute_pressure(ir, live)
    assert report.pressure == 6
    assert report.hot_stmt == 4
    assert {name for name, _ in report.live_at_hot} == {"va", "vb", "vc"}
