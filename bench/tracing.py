"""Spans around the calls the orchestrator makes into each layer.

The wrappers are installed from outside the package, by replacing the names
the callers look up: ``vecport.cli.run_task``, the prompt functions,
``extract_code`` and ``analyze_source`` as imported into
``vecport.orchestrator``, the parser and solver entry points that
``analyze_source`` calls, the replay client's ``complete`` and the executors'
public methods. ``uninstall`` restores the originals, so one process can
alternate untraced and traced passes over the same inputs.

A span is ``[name, start, end, parent]``, kept in memory and written out at
the end. A span's self time is its duration minus that of its direct
children; the pipeline runs single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.native_artifacts: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, before, after))

    def install(self) -> None:
        import vecport.cli as cli
        import vecport.liveness as liveness
        import vecport.orchestrator as orchestrator
        import vecport.parser as parser
        from vecport.executors import CommandExecutor, MockExecutor
        from vecport.llm_client import ReplayClient

        counts = self.counts

        def outcome(result) -> None:
            counts["attempts"] += len(result.all_attempts)
            counts["useful_attempts"] += sum(1 for a in result.all_attempts if a.tests_passed)

        def prompt_chars(bundle) -> None:
            counts["prompt_chars"] += sum(len(m.content) for m in bundle.messages)

        def stmts(ir) -> None:
            counts["stmts"] += len(ir.stmts)

        def compiled(result) -> None:
            counts["compile_failed"] += not result.success

        def tested(result) -> None:
            counts["test_failed"] += not result.all_passed

        def perf_args(args) -> None:
            self.native_artifacts.add(str(args[2]))  # (self, translated, native, ...)

        self._patch(cli, "run_task", "orchestrator.run_task", after=outcome)
        for prompt_fn in ("build_translate_prompt", "build_repair_prompt",
                          "build_optimize_prompt"):
            self._patch(orchestrator, prompt_fn, "agents.prompt", after=prompt_chars)
        self._patch(orchestrator, "extract_code", "agents.extract")
        self._patch(orchestrator, "analyze_source", "liveness.analyze")
        self._patch(parser, "parse_function", "parser.parse", after=stmts)
        self._patch(liveness, "solve_liveness", "liveness.solve")
        self._patch(liveness, "compute_pressure", "liveness.pressure")
        self._patch(ReplayClient, "complete", "llm_client.complete")
        for cls in (CommandExecutor, MockExecutor):
            self._patch(cls, "compile_candidate", "executors.compile", after=compiled)
            self._patch(cls, "run_functional_tests", "executors.test", after=tested)
            self._patch(cls, "run_perf", "executors.perf", before=perf_args)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), self_s in zip(self.spans, self._self_times()):
            t = out[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += self_s
        return dict(out)

    def write(self, path: Path) -> None:
        """One JSON object per span: name, start, end, parent index, self time."""
        with path.open("w") as fh:
            for (name, start, end, parent), self_s in zip(self.spans, self._self_times()):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": self_s}) + "\n")
