"""The command line's answers against the golden data that
tests/golden/make_golden.py recorded: stdout, stderr and exit status of
each command, with and without --json, byte for byte; the witness of
find_countervaluation for every rule of its (matrix, pool) cases; and the
generator against its data, so that neither changes without the other."""

import importlib.util
import json
import pathlib

import pytest

from demorgan_lab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
ENTRIES = json.loads((GOLDEN / "golden.json").read_text(encoding="utf-8"))
WITNESSES = json.loads((GOLDEN / "witnesses.json").read_text(encoding="utf-8"))


def make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_generator_lists_the_recorded_commands():
    assert make_golden().argvs() == [e["argv"] for e in ENTRIES]


def test_the_generator_lists_the_recorded_witness_cases():
    cases = [(name, pool) for name, pool, _, _ in make_golden().witness_cases()]
    assert cases == [(e["matrix"], e["pool"]) for e in WITNESSES]


def test_the_generator_writes_the_committed_inputs():
    inputs = make_golden().inputs()
    committed = {p.name for p in GOLDEN.glob("*.json")} - {"golden.json", "witnesses.json"}
    assert committed == set(inputs)
    for name, text in inputs.items():
        assert (GOLDEN / name).read_text(encoding="utf-8") == text + "\n", name


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_matches_the_golden_data(entry, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # the @file inputs sit next to golden.json
    code = main(list(entry["argv"]))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (entry["code"], entry["stdout"], entry["stderr"])


def test_witnesses_match_the_golden_data():
    module = make_golden()
    for case, entry in zip(module.witness_cases(), WITNESSES, strict=True):
        assert module.witness_entry(case) == entry, (entry["matrix"], entry["pool"])
