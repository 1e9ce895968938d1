"""Shared test helpers: synthetic IR construction, random CFG generation,
deeply nested function bodies and the speedup every outcome carries.

Every property test draws the same examples on every run: the ``tier1``
Hypothesis profile derives each test's seed from the test itself and keeps
no example database between runs.
"""

from __future__ import annotations

import random
import shlex
from pathlib import Path

import pytest
from hypothesis import settings

from oracles import link_statements
from vecport.corpus import bundled_corpus_dir, load_corpus, validate_case
from vecport.executors import PerfResult
from vecport.parser import FunctionIr, Stmt
from vecport.rvv_types import parse_vector_type

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

# The scalar riscv_vector.h shim, and the runner that takes qemu's arguments,
# maps vlen=N onto VECPORT_VLEN and execs the binary on the host.
SHIM = Path(__file__).resolve().parent.parent / "bench" / "shim"
SHIM_RUNNER = f"sh {shlex.quote(str(SHIM / 'run-vlen.sh'))}"


def make_ir(
    block_specs: list[list[tuple[set[str], set[str]]]],
    edges: dict[int, tuple[int, ...]],
    symbols: dict[str, str],
) -> FunctionIr:
    """Synthetic FunctionIr from per-block (uses, defs) statement specs.

    ``block_specs[k]`` holds block k's statements and block 0 is the entry.
    Each name set becomes a mask: bit k stands for the k-th name of ``symbols``.
    An edge may target block ``len(block_specs)``, an empty block with no
    successors, where paths leave the function. The reference front end's
    ``link_statements`` (``oracles.py``) turns the blocks into statement
    successors.
    """
    bit = {name: 1 << k for k, name in enumerate(symbols)}
    block_stmts = {
        block_id: [
            Stmt(kind="assign", uses=sum(bit[n] for n in uses), defs=sum(bit[n] for n in defs),
                 line=0, tokens=[])
            for uses, defs in spec
        ]
        for block_id, spec in enumerate(block_specs)
    }
    exit_id = len(block_specs)
    block_stmts[exit_id] = []
    succs = {b: list(edges.get(b, ())) for b in block_stmts}
    stmts, successors = link_statements(succs, block_stmts, 0)
    for s in stmts:
        s.line = s.stmt_id + 1
        s.tokens = [f"s{s.stmt_id}"]
    table = {name: parse_vector_type(tname) for name, tname in symbols.items()}
    assert all(v is not None for v in table.values())
    return FunctionIr("synthetic", table, stmts, successors)


def straight_line_ir(
    stmt_specs: list[tuple[set[str], set[str]]], symbols: dict[str, str]
) -> FunctionIr:
    return make_ir([stmt_specs], {0: (1,)}, symbols)


RANDOM_TYPES = ("vint32mf2_t", "vint32m1_t", "vint32m2_t", "vint32m4_t")


def random_ir(rng: random.Random, types: tuple[str, ...] = RANDOM_TYPES) -> FunctionIr:
    """Random CFG within the property-test envelope: at most 6 blocks, 12
    statements, 6 variables typed from ``types`` (by default mixed LMUL from
    {1/2, 1, 2, 4}), block out-degree at most 2, everything reachable from the
    entry chain."""
    n_blocks = rng.randint(1, 6)
    n_vars = rng.randint(1, 6)
    names = [f"v{i}" for i in range(n_vars)]
    symbols = {v: rng.choice(types) for v in names}

    n_stmts = rng.randint(0, 12)
    per_block: list[list[tuple[set[str], set[str]]]] = [[] for _ in range(n_blocks)]
    for _ in range(n_stmts):
        uses = set(rng.sample(names, k=rng.randint(0, min(2, n_vars))))
        defs = set(rng.sample(names, k=rng.randint(0, 1)))
        per_block[rng.randrange(n_blocks)].append((uses, defs))

    exit_id = n_blocks
    edges: dict[int, list[int]] = {b: [] for b in range(n_blocks)}
    for b in range(n_blocks - 1):
        edges[b].append(b + 1)
    edges[n_blocks - 1].append(exit_id)
    for _ in range(rng.randint(0, 3)):
        src = rng.randrange(n_blocks)
        if len(edges[src]) >= 2:
            continue
        dst = rng.randrange(n_blocks + 1)  # may target the exit
        if dst not in edges[src]:
            edges[src].append(dst)
    return make_ir(per_block, {b: tuple(v) for b, v in edges.items()}, symbols)


# Statement nests of a given depth, for bodies that use a variable ``n``.
DEEP_NESTING = {
    "blocks": lambda depth: "{" * depth + "n = 1;" + "}" * depth,
    "if_chain": lambda depth: "if (n) " * depth + "n = 1;",
    "for_chain": lambda depth: "for (;;) " * depth + "n = 1;",
    "while_chain": lambda depth: "while (n) " * depth + "n = 1;",
    "do_chain": lambda depth: "do " * depth + "n = 1;" + " while (n);" * depth,
    "else_chain": lambda depth: "if (n) n = 1; else " * depth + "n = 1;",
    # Empty bodies, where the most paths meet at the next statement.
    "empty_for_chain": lambda depth: "for (;;) " * depth + ";",
    "empty_do_chain": lambda depth: "do " * depth + ";" + " while (n);" * depth,
    "empty_else_chain": lambda depth: "if (n) ; else " * depth + ";",
}


def speedup(native_cost_ns: int, translated_cost_ns: int):
    """``PerfResult.speedup`` for two costs: native over translated."""
    return PerfResult(translated_cost_ns, native_cost_ns).speedup


@pytest.fixture(scope="session")
def bundled_cases():
    listing = load_corpus(bundled_corpus_dir())
    assert not listing.problems
    return {m.case_id: validate_case(m) for m in listing.manifests}


@pytest.fixture(scope="session")
def vec_add_case(bundled_cases):
    return bundled_cases["vec_add"]
