"""vecport benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a vecport checkout; everything it writes goes under
``.bench_work/`` there. The run generates the workload's corpus, replay
script and expected outcomes from the seed (``workloads.py``), measures
set-up in fresh interpreters, then runs ``vecport translate`` passes over the
generated inputs in a child process for S seconds (``pipeline.py``) and
checks every outcome. The host workload first self-checks the scalar RVV
shim (``shimcheck.py``).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics, from passes with spans installed (``tracing.py``). The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import shimcheck
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 7  # timed fresh-interpreter set-ups per run, after one warm-up

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics per traced case: span time, span calls, or a counter.
PER_CASE_SPANS = {
    "parser.parse_s": "parser.parse",
    "liveness.analyze_s": "liveness.analyze",
    "liveness.solve_s": "liveness.solve",
    "liveness.pressure_s": "liveness.pressure",
    "agents.prompt_s": "agents.prompt",
    "agents.extract_s": "agents.extract",
    "llm_client.s": "llm_client.complete",
    "executors.compile_s": "executors.compile",
    "executors.test_s": "executors.test",
    "executors.perf_s": "executors.perf",
}
PER_CASE_CALLS = {
    "liveness.analyze_calls": "liveness.analyze",
    "agents.prompt_calls": "agents.prompt",
    "llm_client.calls": "llm_client.complete",
    "executors.compile_calls": "executors.compile",
    "executors.test_calls": "executors.test",
    "executors.perf_calls": "executors.perf",
}
PER_CASE_COUNTS = {
    "parser.stmts": "stmts",
    "agents.prompt_chars": "prompt_chars",
    "executors.compile_failed": "compile_failed",
    "executors.test_failed": "test_failed",
    "executors.runner_invocations": "runner_invocations",
    "executors.native_runs": "native_runs",
}
SETUP_PHASES = {"cli.import_s": "import_s", "corpus.load_s": "load_s",
                "corpus.validate_s": "validate_s"}
PER_LAYER = {
    **{name: "s" for name in SETUP_PHASES},
    **{name: "s/case" for name in PER_CASE_SPANS},
    **{name: "count/case" for name in (*PER_CASE_CALLS, *PER_CASE_COUNTS)},
    "orchestrator.self_s": "s/case",
    "orchestrator.useful_attempt_ratio": "ratio",
    "trace.overhead_s": "s/case",
}


def tail_percentile(samples: list[float]) -> str:
    """The highest of p99.9, p99, p90 with at least ten samples beyond it
    (nearest rank), as text."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 90.0):
        if len(ordered) * (100 - p) / 100 >= 10:
            return f"p{p:g} {ordered[math.ceil(p / 100 * len(ordered)) - 1]:.6g} s"
    return "too few samples for a tail percentile"


def measure_setup(src: Path, corpus: str) -> list[dict]:
    """Fresh-interpreter set-ups; the first one warms the bytecode cache."""
    runs = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(src), corpus],
            capture_output=True, text=True, timeout=60,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        runs.append({"wall_s": wall, **json.loads(proc.stdout)})
    return runs[1:]


def translate_argv(w: workloads.Workload, inputs: Path, out: Path) -> list[str]:
    argv = ["translate", "--replay", str(inputs / "replay.json"),
            "--translate-max", str(w.translate_max), "--optimize-max", str(w.optimize_max),
            "--vlens", ",".join(map(str, w.vlens)), "--parallelism", "1", "--out", str(out)]
    if w.mock:
        return argv + ["--corpus", str(inputs / "corpus"), "--no-exec"]
    return argv + [
        "--cc", "gcc",
        "--flags", f"-O2 -I {shlex.quote(str(shimcheck.SHIM_DIR))}",
        "--runner", f"sh {shlex.quote(str(shimcheck.LAUNCHER))}",
    ]


def end_to_end(result: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    untraced = [p for p in result["passes"] if not p["traced"]]
    case_s = result["case_s"]
    values = {
        "setup_s": statistics.median(s["wall_s"] for s in setups),
        "cases_per_s": sum(p["completed"] for p in untraced) / sum(p["wall_s"] for p in untraced),
        "case_s": statistics.median(case_s),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"set-up: median of {len(setups)} fresh interpreters",
        f"passes: {len(untraced)}, cases timed: {len(case_s)}",
        f"case_s: median {statistics.median(case_s):.6g} s, {tail_percentile(case_s)}, "
        f"{len(case_s)} samples",
    ]
    return values, notes


def per_layer(result: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    cases = sum(p["cases"] for p in traced)
    trace = result["trace"]
    totals, counts = trace["totals"], trace["counts"]
    counts = {**counts, "runner_invocations": trace["runner_invocations"],
              "native_runs": trace["native_runs"]}

    def total(span: str, key: str) -> float:
        return totals.get(span, {}).get(key, 0)

    values = {name: statistics.median(s[key] for s in setups)
              for name, key in SETUP_PHASES.items()}
    values.update({n: total(span, "s") / cases for n, span in PER_CASE_SPANS.items()})
    values.update({n: total(span, "calls") / cases for n, span in PER_CASE_CALLS.items()})
    values.update({n: counts.get(key, 0) / cases for n, key in PER_CASE_COUNTS.items()})
    values["orchestrator.self_s"] = total("orchestrator.run_task", "self_s") / cases
    values["orchestrator.useful_attempt_ratio"] = (
        counts.get("useful_attempts", 0) / counts["attempts"] if counts.get("attempts") else 0.0
    )
    values["trace.overhead_s"] = (
        sum(p["wall_s"] for p in traced) - sum(p["wall_s"] for p in untraced[: len(traced)])
    ) / cases
    notes = [f"traced passes: {len(traced)}, traced cases: {cases}",
             "per-case values are totals over traced passes divided by traced cases"]
    return values, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "vecport" / "__init__.py").is_file():
        print(f"error: {src}/vecport not found; run from the root of a vecport checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from vecport.corpus import bundled_corpus_dir

    bundled = bundled_corpus_dir()
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    w = workloads.generate(args.workload, args.seed, inputs, bundled)
    (work / "tmp").mkdir()
    os.environ["TMPDIR"] = str(work / "tmp")  # compiler temporaries stay in the checkout

    problems = [] if w.mock else shimcheck.run(bundled, work / "shimcheck")
    setups = measure_setup(src, str(inputs / "corpus") if w.mock else "")
    spec = {
        "src": str(src),
        "argv": translate_argv(w, inputs, work / "out"),
        "expected": str(inputs / "expected.json"),
        "out": str(work / "out"),
        "exact_speedup": w.mock,
    }
    (work / "spec.json").write_text(json.dumps(spec, indent=1) + "\n")
    # Own process group, so a timeout also stops the compiler or binary it runs.
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "pipeline.py"), str(work), str(args.seconds),
         str(args.trace)],
        start_new_session=True,
    )
    try:
        returncode = child.wait(timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("error: pipeline process timed out", file=sys.stderr)
        return 1
    if returncode != 0:
        print(f"error: pipeline process exited with {returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())

    passes = result["passes"]
    attempted = sum(p["cases"] for p in passes)
    failed = sum(len(p["wrong"]) for p in passes)
    problems += [e for p in passes for e in p["errors"]]
    for line in problems[:40]:
        print(f"check: {line}", file=sys.stderr)
    values, notes = (per_layer if args.trace else end_to_end)(result, setups)
    units = PER_LAYER if args.trace else END_TO_END

    print(f"workload {w.name}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    print(f"  outcome_errors: {failed}/{attempted} cases")
    for name, value in values.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
