"""The command line's answers against the golden data that
tests/golden/make_golden.py recorded: stdout, stderr and exit status of
each command, with and without --json, byte for byte."""

import json
import pathlib

import pytest

from demorgan_lab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
ENTRIES = json.loads((GOLDEN / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_matches_the_golden_data(entry, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # the @file inputs sit next to golden.json
    code = main(list(entry["argv"]))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (entry["code"], entry["stdout"], entry["stderr"])
