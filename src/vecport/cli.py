"""Command-line entry point.

    vecport translate --corpus DIR (--replay FILE | --endpoint URL) [options]
    vecport analyze FILE FUNCTION [--mode literal|physical] [--dump-ir]
    vecport report OUTPUT_DIR

Exit codes: 0 success, 1 usage, configuration or corpus problem, 2 internal
error, 130 interrupted. Translation failures are results, not process
errors: a run that ends with failed cases still exits 0 and reports them.

``translate --out DIR`` appends each attempt to ``DIR/attempts/<case>.ndjson``
as it happens and writes ``DIR/outcomes/<case>.json`` as soon as the case
finishes. On every exit, completed, interrupted or aborted, it then scores the
finished cases once into ``report.txt`` and ``report.json``, waits for the
builds the real executor queued ahead, and removes its scratch, ``DIR/work/``,
unless ``--keep-scratch`` is given.
``report`` rescores those outcome files through the same summary reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import bundled_corpus_dir, load_corpus, read_key_values, validate_case
from .errors import ConfigurationError, CorpusError, ParseError, UsageError, VecportError
from .executors import (DEFAULT_CC, DEFAULT_FLAGS, DEFAULT_RUNNER, CommandExecutor,
                        MockExecutor, ToolchainConfig)
from .liveness import compute_pressure, solve_liveness
from .llm_client import RemoteClient, ReplayClient
from .metrics import (DEFAULT_UP_LIMIT, REPORT_FORMAT, MetricsReport, OutcomeSummary,
                      indented_json, render_table)
from .orchestrator import Budgets, TaskDeps, run_task
from .parser import dump_ir, parse_function
from .rvv_types import FOOTPRINT_MODES


@dataclass
class RunConfig:
    corpus: str = ""
    cases: tuple[str, ...] = ()
    model: str = "default"
    endpoint: str = ""
    replay: str = ""
    temperature: float = 0.2
    translate_max: int = 10
    optimize_max: int = 10
    cc: str = ""
    flags: str = ""
    runner: str = ""
    vlens: tuple[int, ...] = (128, 256)
    pressure_mode: str = "literal"
    parallelism: int = 1
    out: str = "vecport-out"
    include_failed: bool = True
    no_exec: bool = False
    keep_scratch: bool = False


# The config spellings of a boolean, in any case; anything else is a bad value.
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

_FIELD_PARSERS = {
    "cases": lambda s: tuple(x.strip() for x in s.split(",") if x.strip()),
    "temperature": float,
    "translate_max": int,
    "optimize_max": int,
    "vlens": lambda s: tuple(int(x) for x in s.split(",") if x.strip()),
    "pressure_mode": {mode: mode for mode in FOOTPRINT_MODES}.__getitem__,
    "parallelism": int,
    "include_failed": lambda s: _BOOLEANS[s.lower()],
    "no_exec": lambda s: _BOOLEANS[s.lower()],
    "keep_scratch": lambda s: _BOOLEANS[s.lower()],
}


def load_config_file(path: Path | str) -> dict:
    """Flat key = "value" file; keys mirror the translate flags."""
    values: dict = {}
    known = {f.name for f in fields(RunConfig)}
    for key, value in read_key_values(path, UsageError):
        if key not in known:
            raise UsageError(f"{path}: unknown config key {key!r}")
        parser = _FIELD_PARSERS.get(key, str)
        try:
            values[key] = parser(value)
        except (KeyError, ValueError) as exc:
            raise UsageError(f"{path}: bad value for {key}: {exc}") from exc
    return values


def resolve_config(flag_values: dict, file_values: dict) -> RunConfig:
    """Flag beats config file beats built-in default, field by field; a flag
    of None is one not given."""
    flags = {name: value for name, value in flag_values.items() if value is not None}
    return RunConfig(**{**file_values, **flags})


@functools.cache  # one parser per process: building one leaves cyclic garbage
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vecport", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("translate", help="run the translation pipeline over a corpus")
    t.add_argument("--corpus", help="corpus directory (default: bundled corpus)")
    t.add_argument("--case", action="append", dest="cases", metavar="ID",
                   help="restrict to this case id (repeatable)")
    t.add_argument("--config", help="flat key-value config file; flags override it")
    t.add_argument("--model", help="model name sent to the endpoint")
    t.add_argument("--endpoint", help="chat-completion HTTP endpoint URL")
    t.add_argument("--replay", help="replay script (JSON) standing in for the LLM")
    t.add_argument("--temperature", type=float)
    t.add_argument("--translate-max", type=int, dest="translate_max")
    t.add_argument("--optimize-max", type=int, dest="optimize_max")
    t.add_argument("--cc", help=f"cross compiler (default {DEFAULT_CC})")
    t.add_argument("--flags", help=f"compiler flags (default '{DEFAULT_FLAGS}')")
    t.add_argument("--runner", help=f"emulator/runner binary (default {DEFAULT_RUNNER})")
    t.add_argument("--vlens", type=_FIELD_PARSERS["vlens"],
                   help="comma-separated VLENs for functional tests (default 128,256)")
    t.add_argument("--pressure-mode", dest="pressure_mode", choices=FOOTPRINT_MODES)
    t.add_argument("--parallelism", type=int)
    t.add_argument("--out", help="output directory (default vecport-out)")
    t.add_argument("--include-failed", dest="include_failed", action="store_const",
                   const=True, help="failed cases score minimally (default)")
    t.add_argument("--exclude-failed", dest="include_failed", action="store_const",
                   const=False, help="failed cases do not enter the efficiency score")
    t.add_argument("--no-exec", dest="no_exec", action="store_const", const=True,
                   help="mock executors: no compiler or emulator required")
    t.add_argument("--keep-scratch", dest="keep_scratch", action="store_const",
                   const=True,
                   help="retain the real executor's scratch, work/ under --out; "
                        "a --no-exec run writes only its logs and outputs")

    a = sub.add_parser("analyze", help="register pressure report for an RVV C file")
    a.add_argument("file", help="RVV intrinsic C source file")
    a.add_argument("function", help="function name (or full signature)")
    a.add_argument("--mode", choices=FOOTPRINT_MODES, default="literal")
    a.add_argument("--dump-ir", action="store_true",
                   help="also print each statement and its successors")

    r = sub.add_parser("report", help="recompute metrics from persisted outcomes")
    r.add_argument("out_dir", help="output directory of a previous translate run")
    r.add_argument("--up-limit", type=int, default=None,
                   help="efficiency budget (default: the run's, from report.json)")
    r.add_argument("--exclude-failed", dest="include_failed", action="store_const",
                   const=False, default=None,
                   help="score without failed cases (default: as the run did)")
    return p


def _config_from_args(args: argparse.Namespace) -> tuple[RunConfig, Budgets]:
    file_values = load_config_file(args.config) if args.config else {}
    flag_values = {
        f.name: getattr(args, f.name, None) for f in fields(RunConfig)
    }
    if flag_values.get("cases") is not None:
        flag_values["cases"] = tuple(flag_values["cases"])
    cfg = resolve_config(flag_values, file_values)
    if cfg.endpoint and cfg.replay:
        raise UsageError("choose one of --endpoint or --replay, not both")
    if not cfg.endpoint and not cfg.replay:
        raise UsageError("one of --endpoint or --replay is required")
    try:
        budgets = Budgets(cfg.translate_max, cfg.optimize_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if cfg.parallelism < 1:
        raise UsageError("parallelism must be at least 1")
    return cfg, budgets


def cmd_translate(args: argparse.Namespace) -> int:
    cfg, budgets = _config_from_args(args)
    corpus_dir = Path(cfg.corpus) if cfg.corpus else bundled_corpus_dir()
    listing = load_corpus(corpus_dir)
    for case_dir, problem in listing.problems:
        print(f"warning: skipping {case_dir}: {problem}", file=sys.stderr)
    manifests = listing.manifests
    if cfg.cases:
        known = {m.case_id for m in manifests}
        unknown = [c for c in cfg.cases if c not in known]
        if unknown:
            raise UsageError(
                f"unknown case id(s): {', '.join(unknown)}; "
                f"valid ids: {', '.join(sorted(known))}"
            )
        manifests = [m for m in manifests if m.case_id in cfg.cases]
    if not manifests:
        raise UsageError("no cases selected")

    if cfg.replay:
        client = ReplayClient.from_file(cfg.replay)
        parallelism = cfg.parallelism
        if parallelism > 1 and not client.per_case and len(manifests) > 1:
            print(
                "warning: list-form replay script is one shared sequence; "
                "forcing parallelism 1 for determinism",
                file=sys.stderr,
            )
            parallelism = 1
    else:
        client = RemoteClient(endpoint=cfg.endpoint, model=cfg.model)
        parallelism = cfg.parallelism

    out_dir = Path(cfg.out)
    if cfg.no_exec:
        executor = MockExecutor(vlens=cfg.vlens)
    else:
        toolchain = ToolchainConfig(
            cc=cfg.cc or DEFAULT_CC,  # an empty value means the default
            flags=cfg.flags or DEFAULT_FLAGS,
            runner=cfg.runner or DEFAULT_RUNNER,
            vlens=cfg.vlens,
        )
        executor = CommandExecutor(toolchain, work_dir=out_dir / "work")
        executor.probe()

    cases = []
    for manifest in manifests:
        case = validate_case(manifest)
        for w in case.warnings:
            print(f"warning: {w}", file=sys.stderr)
        cases.append(case)

    deps = TaskDeps(
        client=client,
        executor=executor,
        temperature=cfg.temperature,
        pressure_mode=cfg.pressure_mode,
        log_dir=out_dir / "attempts",
    )

    # Each outcome is written as its case finishes, by the thread that ran
    # it, so cases still in flight when a run stops are written too. Only the
    # summaries are kept.
    outcome_dir = out_dir / "outcomes"
    outcome_dir.mkdir(parents=True, exist_ok=True)
    summaries: list[OutcomeSummary] = []

    def run_case(case) -> None:
        record = run_task(case, budgets, deps).to_dict()
        path = outcome_dir / f"{case.case_id}.json"
        path.write_text(indented_json(record) + "\n")
        summaries.append(OutcomeSummary.from_record(record))

    try:
        if parallelism == 1:
            for case in cases:
                run_case(case)
        else:
            pool = ThreadPoolExecutor(max_workers=parallelism)
            try:
                for fut in as_completed([pool.submit(run_case, case) for case in cases]):
                    fut.result()
            finally:
                # In-flight tasks finish (their external processes have
                # timeouts); queued ones are dropped on interrupt.
                pool.shutdown(wait=True, cancel_futures=True)
    except KeyboardInterrupt:
        print("interrupted; reporting the completed cases", file=sys.stderr)
        return 130
    finally:
        # Completed, interrupted or aborted: score what finished, once.
        if summaries:
            report = MetricsReport.from_outcomes(summaries, cfg.translate_max, cfg.include_failed)
            table = render_table(summaries, report)
            (out_dir / "report.txt").write_text(table)
            (out_dir / "report.json").write_text(report.to_json())
        if not cfg.keep_scratch:
            executor.cleanup()
        elif not cfg.no_exec:
            executor.drain()  # no build outlives the run; its scratch stays
    print(table)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        source = Path(args.file).read_text()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{args.file}: {exc}") from exc
    ir = parse_function(source, args.function)
    report = compute_pressure(ir, solve_liveness(ir), args.mode)
    if args.dump_ir:
        print(dump_ir(ir))
    print(report.to_text())
    return 0


def _run_scoring(out_dir: Path) -> tuple[int, bool]:
    """The budget and failed-case rule the run scored with, from report.json.

    Only those two fields and ``format`` are read; if the file is missing or
    any of them is wrong, the defaults are used, with a warning."""
    try:
        data = json.loads((out_dir / "report.json").read_text())
        if not isinstance(data, dict) or data.get("format") != REPORT_FORMAT:
            raise ValueError("not a metrics report file")
        up_limit, include_failed = data.get("up_limit"), data.get("include_failed")
        if type(up_limit) is not int or up_limit < 1:
            raise ValueError(f"bad up_limit: {up_limit!r}")
        if not isinstance(include_failed, bool):
            raise ValueError(f"bad include_failed: {include_failed!r}")
        return up_limit, include_failed
    except (OSError, ValueError) as exc:
        print(f"warning: unreadable report.json ({exc}); scoring with budget "
              f"{DEFAULT_UP_LIMIT}, failed cases included", file=sys.stderr)
        return DEFAULT_UP_LIMIT, True


def cmd_report(args: argparse.Namespace) -> int:
    outcome_dir = Path(args.out_dir) / "outcomes"
    if not outcome_dir.is_dir():
        raise UsageError(f"no outcomes directory under {args.out_dir}")
    summaries = []
    for path in sorted(outcome_dir.glob("*.json")):
        try:
            summaries.append(OutcomeSummary.from_record(json.loads(path.read_text())))
        except ValueError as exc:
            print(f"warning: skipping corrupt outcome {path.name}: {exc}", file=sys.stderr)
    if not summaries:
        raise UsageError(f"no readable outcomes under {args.out_dir}")
    up_limit, include_failed = _run_scoring(Path(args.out_dir))
    if args.up_limit is not None:
        if args.up_limit < 1:
            raise UsageError(f"--up-limit must be at least 1, not {args.up_limit}")
        up_limit = args.up_limit
    if args.include_failed is not None:
        include_failed = args.include_failed
    for s in summaries:
        if s.passed and s.attempts_used > up_limit:
            raise UsageError(f"{s.case_id} passed after {s.attempts_used} attempts, "
                             f"more than the budget {up_limit}")
    report = MetricsReport.from_outcomes(summaries, up_limit, include_failed)
    print(render_table(summaries, report))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; 1 is this tool's usage code
        return 1 if exc.code else 0
    try:
        if args.command == "translate":
            return cmd_translate(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_report(args)  # the subcommand is required, so it is the third
    except (UsageError, ConfigurationError, CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except VecportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        print("error: internal error", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
