"""The names ``bench/tracing.py`` wraps must stay where it looks them up.

The benchmark's tracer patches module globals and executor methods from
outside the package. If a refactor renames or inlines one of them, the
traced pass silently loses that layer's span and its per-layer metric reads
zero. This runs the golden replay under the tracer and checks that every
layer shows up.
"""

from pathlib import Path

from vecport.cli import main

ROOT = Path(__file__).resolve().parent.parent

SPANS = {
    "orchestrator.run_task", "agents.prompt", "agents.extract", "liveness.analyze",
    "parser.parse", "liveness.solve", "liveness.pressure", "llm_client.complete",
    "executors.compile", "executors.test", "executors.perf",
}


def test_tracer_sees_every_layer(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = main([
            "translate", "--no-exec",
            "--replay", str(ROOT / "tests" / "golden" / "replay.json"),
            "--translate-max", "3", "--optimize-max", "3",
            "--out", str(tmp_path / "out"),
        ])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert SPANS - {name for name, *_ in tracer.spans} == set()
