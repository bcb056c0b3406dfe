"""The command line's answers against the golden data that
tests/golden/make_golden.py recorded: stdout, stderr and exit status of
each command, with and without --json, byte for byte; and the generator
against its data, so that neither changes without the other."""

import importlib.util
import json
import pathlib

import pytest

from demorgan_lab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
ENTRIES = json.loads((GOLDEN / "golden.json").read_text(encoding="utf-8"))


def make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_generator_lists_the_recorded_commands():
    assert make_golden().argvs() == [e["argv"] for e in ENTRIES]


def test_the_generator_writes_the_committed_inputs():
    inputs = make_golden().inputs()
    committed = {p.name for p in GOLDEN.glob("*.json")} - {"golden.json"}
    assert committed == set(inputs)
    for name, text in inputs.items():
        assert (GOLDEN / name).read_text(encoding="utf-8") == text + "\n", name


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_matches_the_golden_data(entry, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # the @file inputs sit next to golden.json
    code = main(list(entry["argv"]))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (entry["code"], entry["stdout"], entry["stderr"])
