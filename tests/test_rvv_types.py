from fractions import Fraction

import pytest

from vecport.rvv_types import (
    iter_vector_types,
    parse_vector_type,
    register_footprint,
)


def test_basic_int_type():
    t = parse_vector_type("vint32m2_t")
    assert t.elem_kind == "signed_int"
    assert t.elem_bits == 32
    assert t.lmul == 2
    assert t.tuple_fields == 1


def test_fractional_float_type():
    t = parse_vector_type("vfloat16mf4_t")
    assert t.elem_kind == "float"
    assert t.elem_bits == 16
    assert t.lmul == Fraction(1, 4)
    assert t.tuple_fields == 1


def test_tuple_type():
    t = parse_vector_type("vuint8m2x3_t")
    assert t.elem_kind == "unsigned_int"
    assert t.elem_bits == 8
    assert t.lmul == 2
    assert t.tuple_fields == 3


def test_mask_type_occupies_one_register():
    t = parse_vector_type("vbool8_t")
    assert t.elem_kind == "mask"
    assert t.lmul == 1
    assert t.tuple_fields == 1
    assert t.elem_bits is None
    assert register_footprint(t) == 1
    assert register_footprint(t, "physical") == 1


@pytest.mark.parametrize(
    "name",
    [
        "size_t",
        "int32_t",
        "uint8x16_t",  # Neon, not RVV
        "vint32m3_t",  # m3 is not a legal multiplier
        "vint64mf2_t",  # SEW/LMUL ratio over 64
        "vfloat8m1_t",  # no 8-bit float
        "vint8m8x2_t",  # group exceeds the register file
        "vint8mf1_t",  # mf1 is not a token
        "vbool3_t",
        "vint128m1_t",
    ],
)
def test_non_vector_names(name):
    assert parse_vector_type(name) is None


@pytest.mark.parametrize(
    "name,mode,expected",
    [
        ("vint32m4_t", "literal", Fraction(4)),
        ("vfloat32mf2_t", "literal", Fraction(1, 2)),
        ("vfloat32mf2_t", "physical", Fraction(1)),
        ("vint32m2x3_t", "literal", Fraction(6)),
        ("vuint8mf4x2_t", "literal", Fraction(1, 2)),
        ("vuint8mf4x2_t", "physical", Fraction(2)),
    ],
)
def test_footprints(name, mode, expected):
    assert register_footprint(parse_vector_type(name), mode) == expected


def test_footprint_rejects_unknown_mode():
    with pytest.raises(ValueError):
        register_footprint(parse_vector_type("vint32m1_t"), "wild-guess")


def test_exhaustive_round_trip():
    names = [t.name() for t in iter_vector_types()]
    assert len(names) == len(set(names))
    for t, name in zip(iter_vector_types(), names):
        assert t.name() == name
        parsed = parse_vector_type(name)
        assert parsed is not None, name
        assert parsed == t
        assert parsed.name() == name


def test_enumeration_respects_grouping_limit():
    for t in iter_vector_types():
        assert t.lmul * t.tuple_fields <= 8
        if t.elem_kind == "mask":
            assert t.tuple_fields == 1


def test_enumeration_counts():
    names = {t.name() for t in iter_vector_types()}
    # 7 mask ratios; per signedness 22 scalar widths/lmuls; 15 float ones.
    base = sum(1 for t in iter_vector_types() if t.tuple_fields == 1)
    assert base == 22 * 2 + 15 + 7
    assert "vint8mf8_t" in names
    assert "vfloat64m8_t" in names
    assert "vuint16mf4x8_t" in names  # 1/4 * 8 = 2, within the register file
    assert "vint8m4x3_t" not in names  # 4 * 3 = 12 registers would overflow it
