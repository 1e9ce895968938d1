"""Identity sweep: what the analyzer makes of every text the pipeline meets.

    python tests/identity_sweep.py run OUT.json [--src DIR] [--mutants N] [--seed S]
    python tests/identity_sweep.py --compare A.json B.json [--examples N]

``run`` gathers the texts and analyzes each (text, signature) pair with the
``vecport`` package found under ``--src`` (default: this checkout's ``src``),
so two trees can be swept over the same inputs. The texts are:

- every ``.c`` file of the bundled corpus and of ``tests/golden``;
- every reply of ``tests/golden/replay.json`` and of the ``bench/workloads.py``
  replays at seeds 1 and 5, every fenced block in those replies, and what
  ``extract_code`` takes from each.

The signatures are the bundled cases' and the names of the golden analyze
sources. Each pair records a digest of the statement graph (see
``fingerprint``) and both modes' ``to_text()``, a digest of what
``to_text()`` leaves out (see ``report_digest``), and the head of the literal
report, or the error's type and text. The graph is read from ``FunctionIr``
fields, not from ``dump_ir``, so two trees whose listings differ in layout
can still be compared. With ``--mutants N``, each distinct code text that
declares a vector (a reply with a fence is left to its blocks) also yields N
seeded mutants per mutation kind (see ``MUTATIONS``), swept against the
signatures whose function name the mutant mentions; the mutants do not
depend on the package swept, so both trees see the same ones.

``--compare`` prints the pairs whose records differ, counted by mutation
kind and by the outcome on each side, with a few examples of each. It exits
1 if any unmutated pair differs.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CORPUS = ROOT / "src" / "vecport" / "corpus_data"
FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
SEEDS = (1, 5)

VECTOR_TYPE_RE = re.compile(r"\bv(?:u?int(?:8|16|32|64)|float(?:16|32|64))m(?:f?[1248])_t\b")
VECTOR_DECL_RE = re.compile(
    r"^(\s*)(?:const\s+)?(" + VECTOR_TYPE_RE.pattern + r")\s+(\w+)\s*(=[^;]*)?;\s*$")
OTHER_LMUL = {"m1": "m2", "m2": "m8", "m4": "m1", "m8": "m1",
              "mf2": "m1", "mf4": "m2", "mf8": "m1"}


def _replies() -> list[str]:
    """The golden replay's replies, then each bench workload's at each seed."""
    replies = [r for seq in json.loads((GOLDEN / "replay.json").read_text()).values()
               for r in seq]
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(workloads.WORKLOADS):
            for seed in SEEDS:
                dest = Path(tmp) / f"{name}-{seed}"
                workloads.generate(name, seed, dest, CORPUS)
                script = json.loads((dest / "replay.json").read_text())
                replies += [r for cid in sorted(script) for r in script[cid]]
    return replies


def gather_texts() -> list[str]:
    """Every distinct input text, in a fixed order."""
    from vecport.agents import extract_code
    from vecport.errors import NoCodeError

    texts = [p.read_text() for p in sorted(CORPUS.glob("*/*.c"))]
    texts += [p.read_text() for p in sorted(GOLDEN.rglob("*.c"))]
    for reply in _replies():
        texts.append(reply)
        texts += FENCE_RE.findall(reply)
        try:
            texts.append(extract_code(reply))
        except NoCodeError:
            pass
    return list(dict.fromkeys(texts))


def signatures() -> list[str]:
    sigs = []
    for manifest in sorted(CORPUS.glob("*/manifest.txt")):
        sigs += re.findall(r'^signature\s*=\s*"(.*)"\s*$', manifest.read_text(), re.M)
    sigs += sorted(p.stem for p in (GOLDEN / "analyze").glob("*.c"))
    return sigs


def sig_name(signature: str) -> str:
    return re.findall(r"\w+", signature.split("(", 1)[0])[-1]


# ---------------------------------------------------------------------------
# Mutations: each takes a text's lines and a seeded RNG and returns new lines,
# or None when the text offers nothing to mutate.


def _decls(lines):
    return [(i, m) for i, line in enumerate(lines) if (m := VECTOR_DECL_RE.match(line))]


def _span(rng, lines, start):
    """A run of lines from ``start`` that opens and closes as many braces."""
    end, depth = start, 0
    for end in range(start, min(len(lines), start + rng.randint(1, 8))):
        depth += lines[end].count("{") - lines[end].count("}")
        if depth < 0:
            return None
        if depth == 0 and rng.random() < 0.5:
            break
    return end if depth == 0 else None


def _nested_decl(lines, rng, retype):
    decls = _decls(lines)
    if not decls:
        return None
    i, m = rng.choice(decls)
    start = rng.randint(i + 1, len(lines))
    end = _span(rng, lines, start) if start < len(lines) else None
    decl = lines[i]
    if retype:
        word = m[2]
        lmul = re.search(r"m(f?\d)_t$", word)[0][:-2]
        decl = decl.replace(word, word[:-len(lmul) - 2] + OTHER_LMUL[lmul] + "_t", 1)
    body = lines[start:end + 1] if end is not None else []
    return lines[:start] + ["{", decl, *body, "}"] + lines[start + len(body):]


def mutate_shadow(lines, rng):
    """A vector's declaration, copied into a new block that opens later."""
    return _nested_decl(lines, rng, retype=False)


def mutate_retype(lines, rng):
    """As ``shadow``, with the copy given another LMUL."""
    return _nested_decl(lines, rng, retype=True)


def mutate_block(lines, rng):
    """A run of statements wrapped in a block of its own."""
    start = rng.randrange(len(lines))
    end = _span(rng, lines, start)
    if end is None:
        return None
    return lines[:start] + ["{"] + lines[start:end + 1] + ["}"] + lines[end + 1:]


def mutate_scalar(lines, rng):
    """A scalar of a vector's name, declared at some line, maybe in a new block."""
    decls = _decls(lines)
    if not decls:
        return None
    name = rng.choice(decls)[1][3]
    at = rng.randint(decls[0][0] + 1, len(lines))
    scalar = f"int {name} = 0;"
    if rng.random() < 0.5 and (end := _span(rng, lines, at) if at < len(lines) else None):
        return lines[:at] + ["{", scalar] + lines[at:end + 1] + ["}"] + lines[end + 1:]
    return lines[:at] + [scalar] + lines[at:]


def mutate_for_init(lines, rng):
    """A vector declaration turned into a ``for`` init whose loop holds the lines after it."""
    decls = [(i, m) for i, m in _decls(lines) if m[4]]
    if not decls:
        return None
    i, m = rng.choice(decls)
    end = _span(rng, lines, i + 1) if i + 1 < len(lines) else None
    body = lines[i + 1:end + 1] if end is not None else []
    head = f"{m[1]}for ({m[2]} {m[3]} {m[4]}; 0; ) {{"
    return lines[:i] + [head, *body, "}"] + lines[i + 1 + len(body):]


def mutate_return(lines, rng):
    """A ``return;`` before some line."""
    at = rng.randrange(len(lines))
    return lines[:at] + ["return;"] + lines[at:]


def mutate_swap(lines, rng):
    """Two adjacent lines swapped."""
    at = rng.randrange(len(lines) - 1) if len(lines) > 1 else None
    if at is None:
        return None
    return lines[:at] + [lines[at + 1], lines[at]] + lines[at + 2:]


MUTATIONS = {
    "shadow": mutate_shadow,
    "retype": mutate_retype,
    "block": mutate_block,
    "scalar": mutate_scalar,
    "for_init": mutate_for_init,
    "return": mutate_return,
    "swap": mutate_swap,
}


def mutants(texts: list[str], per_kind: int, seed: int) -> list[tuple[str, str]]:
    """(kind, mutant) for each draw of each kind on each distinct code text that
    declares a vector; a reply with a fence is left to the block it holds."""
    seen = set(texts)
    sources = {t.strip(): None for t in texts if "```" not in t}
    out = []
    for ti, text in enumerate(sources):
        lines = text.split("\n")
        if not _decls(lines):
            continue
        for kind, mutate in MUTATIONS.items():
            for draw in range(per_kind):
                rng = random.Random(f"{seed}:{ti}:{kind}:{draw}")
                new = mutate(lines, rng)
                if new is None:
                    continue
                mutant = "\n".join(new)
                if mutant not in seen:
                    seen.add(mutant)
                    out.append((kind, mutant))
    return out


# ---------------------------------------------------------------------------
# Sweeping and comparing.


def _sorted_names(ir, names) -> list[str]:
    """Sorted IR names of a use or def mask; a tree from before the masks holds a set."""
    return sorted(ir.names_in(names) if isinstance(names, int) else names)


def fingerprint(ir) -> str:
    """The statement graph: for each statement its id, kind, line, text, sorted
    uses and defs and sorted successors, then the symbol table."""
    stmts = [[s.stmt_id, s.kind, s.line, s.text, _sorted_names(ir, s.uses),
              _sorted_names(ir, s.defs), sorted(ir.successors[s.stmt_id])] for s in ir.stmts]
    table = sorted((name, vt.name()) for name, vt in ir.symbol_table.items())
    return json.dumps([stmts, table])


def report_digest(reports) -> str:
    """Each report's ``to_dict()``, ``per_stmt_pressure`` and ``live_at_hot``,
    digested: ``to_text()`` shows no per-statement pressure."""
    fields = [[r.to_dict(), sorted((i, str(p)) for i, p in r.per_stmt_pressure.items()),
               sorted((name, str(fp)) for name, fp in r.live_at_hot)] for r in reports]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:16]


def record(text: str, signature: str) -> list[str]:
    """["ok", digest of the statement graph and both to_text(), both reports'
    ``report_digest``, the literal report's first lines], or [error type,
    error text]."""
    from vecport.errors import VecportError
    from vecport.liveness import analyze_source
    from vecport.parser import parse_function

    try:
        reports = [analyze_source(text, signature, "literal")]
        literal = reports[0].to_text()
        ir = parse_function(text, signature)
        reports.append(analyze_source(text, signature, "physical"))
        outputs = [fingerprint(ir), literal, reports[1].to_text()]
        digest = hashlib.sha256("\0".join(outputs).encode()).hexdigest()[:16]
        renames = " (renames)" if any("@" in name for name in ir.symbol_table) else ""
        return ["ok", digest, report_digest(reports),
                " / ".join(literal.split("\n")[:3]) + renames]
    except VecportError as exc:
        return [type(exc).__name__, str(exc)]
    except Exception as exc:  # a crash is a finding, not a reason to stop
        return ["crash " + type(exc).__name__, str(exc)]


def run(args) -> None:
    sys.path.insert(0, str(Path(args.src).resolve()))
    texts = gather_texts()
    sigs = signatures()
    entries = [("", t, list(range(len(sigs)))) for t in texts]
    for kind, mutant in mutants(texts, args.mutants, args.seed):
        mentioned = [si for si, sig in enumerate(sigs)
                     if re.search(rf"\b{re.escape(sig_name(sig))}\s*\(", mutant)]
        entries.append((kind, mutant, mentioned))
    results = []
    for kind, text, sis in entries:
        results.append({"kind": kind, "text": text,
                        "records": {sigs[si]: record(text, sigs[si]) for si in sis}})
    Path(args.out).write_text(json.dumps({"signatures": sigs, "entries": results}))
    pairs = sum(len(e["records"]) for e in results)
    parsed = sum(r[0] == "ok" for e in results for r in e["records"].values())
    print(f"{len(texts)} texts, {len(results) - len(texts)} mutants, {len(sigs)} signatures: "
          f"{pairs} pairs, {parsed} parse", file=sys.stderr)


def outcome(rec: list[str]) -> str:
    """A record's class: parsed (with shadowed names or not), or the error without its places."""
    if rec[0] == "ok":
        return "ok, renames" if rec[-1].endswith("(renames)") else "ok"
    return rec[0] + ": " + re.sub(r"'[^']*'|\(line \d+\)", "_", rec[1])


def compare(a_path: str, b_path: str, examples: int) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    if a["signatures"] != b["signatures"] or len(a["entries"]) != len(b["entries"]):
        print("the two sweeps have different inputs")
        return 1
    counts: Counter = Counter()
    shown = defaultdict(list)
    base_diffs = 0
    for ea, eb in zip(a["entries"], b["entries"]):
        if ea["text"] != eb["text"]:
            print("the two sweeps have different inputs")
            return 1
        for sig, ra in ea["records"].items():
            rb = eb["records"][sig]
            if ra == rb:
                continue
            key = (ea["kind"] or "unmutated", outcome(ra), outcome(rb))
            base_diffs += not ea["kind"]
            counts[key] += 1
            if len(shown[key]) < examples:
                shown[key].append((sig, ea["text"], ra, rb))
    total = sum(len(e["records"]) for e in a["entries"])
    print(f"{sum(counts.values())} of {total} pairs differ; {base_diffs} unmutated")
    for (kind, oa, ob), n in sorted(counts.items()):
        print(f"{n:6d}  {kind}: {oa}  ->  {ob}")
        for sig, text, ra, rb in shown[(kind, oa, ob)]:
            print(f"        --- {sig}\n" + "\n".join("        | " + l for l in text.split("\n")))
            for side, rec in (("A", ra), ("B", rb)):
                print(f"        {side}: {rec[0]}: {rec[-1]}")
    return 1 if base_diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--examples", type=int, default=2)
    sub = parser.add_subparsers(dest="command")
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--src", default=str(ROOT / "src"))
    r.add_argument("--mutants", type=int, default=0)
    r.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, args.examples)
    if args.command != "run":
        parser.error("give 'run OUT.json' or '--compare A B'")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
