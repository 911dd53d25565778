"""Pinned CLI outputs: bracket, star, eom and vardiff, as text and as JSON.

``golden_outputs.json`` lists each case's argv (config paths relative to
the repository root) with the exit code and the exact stdout it gave when
the file was written.  Rendering and canonical JSON must not drift, so the
comparison is byte for byte.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from fieldstar.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"


def load() -> list:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def run_cli(argv) -> tuple:
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


CASES = load()


def test_corpus_covers_each_command_in_both_forms():
    seen = {(case["argv"][0], "--json" in case["argv"]) for case in CASES}
    assert seen == {(cmd, js) for cmd in ("bracket", "star", "eom", "vardiff")
                    for js in (False, True)}


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_cli(case["argv"]) == (case["exit"], case["stdout"])
