"""Corpus goldens: a scripted translate run over the bundled corpus must keep
producing the committed outputs, modulo timestamps, and ``vecport analyze
--dump-ir`` must keep printing the committed statements, their successors
and the report.

``golden/replay.json`` drives ``vecport translate --no-exec`` with budgets 3/3
through every FSM branch that mock executors can reach: a no-code reply, a
compile error and a VLEN-specific test failure in each phase; a failed case;
a baseline and a variant whose ``mock-cost: 0`` raises ``PerfError``; winning,
tied and losing variants; a variant the analyzer cannot parse; and a replay
script that runs out before and in the middle of optimization.

``golden/expected/`` mirrors the run directory with every ``timestamp`` set
to null. The run directory holds nothing else, and each attempt is written
once: as a line of its case's log, ``attempts/<case>.ndjson``, not again in
the outcome. ``golden/analyze/`` holds the analyze stdout, in both modes, for
each bundled ``native.c``, for ``constructs.c``, which uses every construct
the parser accepts, for ``spills.c``, whose peak exceeds the register file
and which defines a vector it never reads, and for ``stripmine.c``, the
idiomatic strip-mined ``for`` loop after an early ``return``. After an
intended behaviour change, regenerate both with

    VECPORT_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py
"""

import json
import os
from pathlib import Path

import pytest

import vecport.cli as cli
from vecport.cli import main
from vecport.corpus import bundled_corpus_dir, load_corpus

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
ANALYZE = GOLDEN / "analyze"
ANALYZED = {m.case_id: (m.native_reference_path, m.function_signature)
            for m in load_corpus(bundled_corpus_dir()).manifests}
ANALYZED["constructs"] = (ANALYZE / "constructs.c", "constructs")
ANALYZED["spills"] = (ANALYZE / "spills.c", "spills")
ANALYZED["stripmine"] = (ANALYZE / "stripmine.c", "stripmine")
COMPARED = ("outcomes/*.json", "attempts/*.ndjson", "report.json", "report.txt")


def _null_timestamps(value):
    if isinstance(value, dict):
        return {k: None if k == "timestamp" else _null_timestamps(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_null_timestamps(v) for v in value]
    return value


def _normalized(path: Path) -> str:
    text = path.read_text()
    if path.suffix == ".json":
        return json.dumps(_null_timestamps(json.loads(text)), indent=2, sort_keys=True) + "\n"
    if path.suffix == ".ndjson":
        return "".join(
            json.dumps(_null_timestamps(json.loads(line)), sort_keys=True) + "\n"
            for line in text.splitlines()
        )
    return text


def _outputs(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): _normalized(p)
        for pattern in COMPARED
        for p in sorted(root.glob(pattern))
    }


def test_scripted_corpus_run_matches_goldens(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "translate", "--no-exec",
        "--replay", str(GOLDEN / "replay.json"),
        "--translate-max", "3", "--optimize-max", "3",
        "--out", str(out),
    ])
    assert rc == 0
    actual = _outputs(out)
    assert len(actual) == 7 + 7 + 2

    if os.environ.get("VECPORT_UPDATE_GOLDEN"):
        for rel, text in actual.items():
            target = EXPECTED / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)

    expected = {
        str(p.relative_to(EXPECTED)): p.read_text()
        for p in sorted(EXPECTED.rglob("*")) if p.is_file()
    }
    assert sorted(actual) == sorted(expected)
    for rel in sorted(expected):
        assert actual[rel] == expected[rel], f"{rel} differs from its golden"
    assert capsys.readouterr().out == expected["report.txt"] + "\n"


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """A golden replay run directory, and the TaskOutcome of each case."""
    outcomes = {}
    real_run_task = cli.run_task

    def kept(case, *args):
        outcomes[case.case_id] = outcome = real_run_task(case, *args)
        return outcome

    out = tmp_path_factory.mktemp("golden") / "out"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_task", kept)
        assert main(["translate", "--no-exec", "--replay", str(GOLDEN / "replay.json"),
                     "--translate-max", "3", "--optimize-max", "3", "--out", str(out)]) == 0
    return out, outcomes


def test_no_exec_run_directory_holds_only_the_outputs(golden_run):
    out, _ = golden_run
    assert sorted(p.name for p in out.iterdir()) == [
        "attempts", "outcomes", "report.json", "report.txt",
    ]


def test_outcomes_do_not_copy_the_attempts(golden_run):
    out, outcomes = golden_run
    files = sorted(out.glob("outcomes/*.json"))
    assert [p.stem for p in files] == sorted(outcomes)
    for path in files:
        assert "attempts" not in json.loads(path.read_text()), path.name


def test_each_attempt_is_logged_once_in_order(golden_run):
    out, outcomes = golden_run
    assert sorted(p.stem for p in out.glob("attempts/*.ndjson")) == sorted(outcomes)
    for case_id, outcome in outcomes.items():
        lines = (out / "attempts" / f"{case_id}.ndjson").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            a.to_record() for a in outcome.all_attempts
        ], case_id


def test_report_exclude_failed_scores_as_an_excluding_run(golden_run, tmp_path, capsys):
    out, outcomes = golden_run
    assert not all(o.passed for o in outcomes.values())  # max_s16 fails
    excluded = tmp_path / "excluded"
    assert main(["translate", "--no-exec", "--replay", str(GOLDEN / "replay.json"),
                 "--translate-max", "3", "--optimize-max", "3", "--exclude-failed",
                 "--out", str(excluded)]) == 0
    expected = (excluded / "report.txt").read_text()
    assert "efficiency score: 4.3 (budget 3, failed cases excluded)" in expected
    capsys.readouterr()
    assert main(["report", str(out), "--exclude-failed"]) == 0
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("mode", ["literal", "physical"])
@pytest.mark.parametrize("name", sorted(ANALYZED))
def test_analyze_dump_ir_matches_golden(name, mode, capsys):
    path, function = ANALYZED[name]
    assert main(["analyze", str(path), function, "--mode", mode, "--dump-ir"]) == 0
    actual = capsys.readouterr().out
    golden = ANALYZE / f"{name}.{mode}.txt"
    if os.environ.get("VECPORT_UPDATE_GOLDEN"):
        golden.write_text(actual)
    assert actual == golden.read_text()
