"""RVV v1.0 intrinsic type names: parsing, legality, and register footprints.

Vector type names follow the grammar ``v{int|uint|float}{8,16,32,64}m{f?}{1,2,4,8}(x{2..8})?_t``
plus the mask family ``vbool{1,2,4,8,16,32,64}_t``. The legal names are exactly
the names of ``iter_vector_types()``, which holds every legality rule once;
``parse_vector_type`` looks a name up in that enumeration. A type's register
footprint is its group multiplier (LMUL) times its tuple field count; masks
always occupy one register. Every legal LMUL is a whole number of eighths of a
register, so a type stores its LMUL in eighths, and the analyzer reads
footprints as whole eighths from ``footprint_eighths``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Iterator

SIGNED_INT = "signed_int"
UNSIGNED_INT = "unsigned_int"
FLOAT = "float"
MASK = "mask"

INT_WIDTHS = (8, 16, 32, 64)
FLOAT_WIDTHS = (16, 32, 64)
# mf8 to m8, in eighths of a register.
LMULS = (1, 2, 4, 8, 16, 32, 64)
MASK_RATIOS = (1, 2, 4, 8, 16, 32, 64)

# Maximum element width; SEW/LMUL may not exceed it, which rules out
# combinations like vint64mf2_t.
ELEN = 64

# Footprint modes: "literal" sums the LMUL values as written (fractions kept),
# "physical" charges whole registers since a fractional-LMUL value still
# occupies one.
FOOTPRINT_MODES = ("literal", "physical")

_KIND_PREFIX = {SIGNED_INT: "int", UNSIGNED_INT: "uint", FLOAT: "float"}


@dataclass(frozen=True)
class VectorType:
    """One RVV value type: element kind/width, group multiplier, tuple fields.

    Masks carry no element width; ``mask_ratio`` preserves the N of vboolN_t so
    names round-trip.
    """

    elem_kind: str
    lmul_eighths: int
    tuple_fields: int = 1
    elem_bits: int | None = None
    mask_ratio: int | None = None

    @property
    def lmul(self) -> Fraction:
        return Fraction(self.lmul_eighths, 8)

    def is_mask(self) -> bool:
        return self.elem_kind == MASK

    def name(self) -> str:
        if self.is_mask():
            return f"vbool{self.mask_ratio}_t"
        if self.lmul >= 1:
            mul = f"m{self.lmul}"
        else:
            mul = f"mf{self.lmul.denominator}"
        tup = f"x{self.tuple_fields}" if self.tuple_fields > 1 else ""
        return f"v{_KIND_PREFIX[self.elem_kind]}{self.elem_bits}{mul}{tup}_t"


def register_footprint(t: VectorType, mode: str = "literal") -> Fraction:
    """Registers demanded by one live value of type ``t``.

    literal mode keeps fractional LMUL as a fraction; physical mode rounds each
    field up to a whole register.
    """
    if mode not in FOOTPRINT_MODES:
        raise ValueError(f"unknown footprint mode: {mode!r}")
    per_field = max(8, t.lmul_eighths) if mode == "physical" else t.lmul_eighths
    return Fraction(per_field * t.tuple_fields, 8)


def iter_vector_types() -> Iterator[VectorType]:
    """Every legal vector type, masks included, in a deterministic order."""
    for kind in (SIGNED_INT, UNSIGNED_INT, FLOAT):
        widths = FLOAT_WIDTHS if kind == FLOAT else INT_WIDTHS
        for bits in widths:
            # SEW/LMUL <= ELEN; LMUL * fields <= 8, with at most 8 fields.
            # LMUL counts eighths here.
            for lmul in (m for m in LMULS if m * ELEN >= bits * 8):
                for fields in range(1, min(8, 64 // lmul) + 1):
                    yield VectorType(
                        elem_kind=kind, lmul_eighths=lmul, tuple_fields=fields, elem_bits=bits
                    )
    for ratio in MASK_RATIOS:
        yield VectorType(elem_kind=MASK, lmul_eighths=8, mask_ratio=ratio)


# Every legal name, built once from the enumeration (292 entries).
_BY_NAME = {t.name(): t for t in iter_vector_types()}


def parse_vector_type(type_name: str) -> VectorType | None:
    """Decode an RVV intrinsic type name; None when the name is not a vector type.

    A non-match is an expected outcome (callers use it to filter scalar
    declarations), so illegal names never raise.
    """
    return _BY_NAME.get(type_name)


@cache
def footprint_eighths(mode: str) -> dict[VectorType, int]:
    """Every legal type's footprint in ``mode``, in eighths of a register.

    Every legal LMUL is a multiple of 1/8, so each footprint is a whole
    number of eighths. The table is built on first use, once per mode, and
    shared by every caller, who must not modify it.
    """
    return {t: int(register_footprint(t, mode) * 8) for t in _BY_NAME.values()}
