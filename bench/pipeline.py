"""Runs ``vecport translate`` passes in one process, for ``run.py``.

    python3 bench/pipeline.py RUN_DIR SECONDS TRACE

RUN_DIR/spec.json gives the translate arguments and the expected outcomes.
Each pass calls ``vecport.cli.main`` once over the whole generated corpus,
serially, and passes start until SECONDS have elapsed. Every call to
``run_task`` is timed for the per-case latency. After each pass, outside the
timed region, the output directory is checked against the expectations and
removed. With TRACE=1 passes alternate untraced and traced (layer spans
installed), so the two walls give the tracing overhead on identical work.
RUN_DIR/result.json receives the measurements.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from check import check_run
from tracing import Tracer

RUNLOG_ENV = "VECPORT_BENCH_RUNLOG"  # read by shim/run-vlen.sh


def main(run_dir: Path, seconds: float, trace: bool) -> None:
    spec = json.loads((run_dir / "spec.json").read_text())
    sys.path.insert(0, spec["src"])
    import vecport.cli as cli

    expected = json.loads(Path(spec["expected"]).read_text())
    out_dir = Path(spec["out"])
    runlog = run_dir / "runlog.txt"
    latencies: list[float] = []
    run_task = cli.run_task

    def timed_run_task(*args, **kwargs):
        start = time.perf_counter()
        try:
            return run_task(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)

    cli.run_task = timed_run_task
    tracer = Tracer()
    passes = []
    case_s: list[float] = []
    started = time.perf_counter()
    with open(os.devnull, "w") as devnull:
        while True:
            traced = trace and len(passes) % 2 == 1
            if traced:
                tracer.install()
                os.environ[RUNLOG_ENV] = str(runlog)
            del latencies[:]
            crash = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(devnull):
                    rc = cli.main(list(spec["argv"]))
            except Exception as exc:  # a crash is a wrong outcome for every case
                rc, crash = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                del os.environ[RUNLOG_ENV]
            else:
                case_s += latencies
            if rc == 0:
                wrong, errors = check_run(out_dir, expected, spec["exact_speedup"])
            else:
                wrong = set(expected["cases"])
                errors = [crash or f"translate exited with {rc}"]
            shutil.rmtree(out_dir, ignore_errors=True)
            passes.append({"traced": traced, "wall_s": wall, "cases": len(expected["cases"]),
                           "completed": len(latencies), "wrong": sorted(wrong),
                           "errors": errors[:20]})
            # A traced run measures whole (untraced, traced) pairs.
            if time.perf_counter() - started >= seconds and not (trace and len(passes) % 2):
                break

    result = {
        "passes": passes,
        "case_s": case_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        runs = runlog.read_text().splitlines() if runlog.exists() else []
        result["trace"] = {
            "totals": tracer.totals(),
            "counts": dict(tracer.counts),
            "runner_invocations": len(runs),
            "native_runs": sum(1 for r in runs if r in tracer.native_artifacts),
        }
        tracer.write(run_dir / "spans.ndjson")
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1")
