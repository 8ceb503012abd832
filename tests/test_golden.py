"""Byte-for-byte golden reports of the command line.

Each file under ``tests/golden/`` is the stdout of one command on bundled
data.  A change that keeps results identical keeps these bytes identical;
a change that means to alter a report regenerates the file, for example

    PYTHONPATH=src python -m codelattice.cli verify thm22 --no-timing \\
        > tests/golden/verify-thm22.json

and says why in the change log.
"""

import json
from pathlib import Path

import pytest

from codelattice.cli import _report_text, main
from codelattice.matio import data_path

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "verify-thm22.json": ["verify", "thm22", "--no-timing"],
    "verify-cor23.json": ["verify", "cor23", "--no-timing"],
    "verify-thm24.json": ["verify", "thm24", "--no-timing"],
    "verify-cor25.json": ["verify", "cor25", "--no-timing"],
    "verify-cstar-collapse.json": ["verify", "cstar-collapse", "--no-timing"],
    "verify-dbar-schur.json": ["verify", "dbar-schur", "--no-timing"],
    "verify-golay-lp-p2.json": ["verify", "golay-lp", "--p", "2", "--no-timing"],
    "verify-golay-lp-p3_2.json": ["verify", "golay-lp", "--p", "3/2", "--no-timing"],
    "verify-golay-lp-p1.json": ["verify", "golay-lp", "--p", "1", "--no-timing"],
    "construct-d-bar.json": [
        "construct",
        data_path("tower_nonclosed.manifest.txt"),
        "--construction",
        "d-bar",
        "--format",
        "json",
    ],
    "code-info-golay24.json": ["code-info", data_path("golay24.txt"), "--format", "json"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][0] == "verify"))
def test_text_report_renders_the_golden_report(capsys, name):
    # the text form is the JSON report printed line by line: a tuple or a
    # Fraction left in a report prints differently from its JSON value
    assert main(CASES[name] + ["--format", "text"]) == 0
    golden = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    assert capsys.readouterr().out == _report_text(golden) + "\n"
