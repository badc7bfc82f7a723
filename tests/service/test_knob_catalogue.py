"""The "All knobs" tables in docs/OPERATIONS.md match the parsers.

Every ``python -m repro.service`` flag has exactly one row in §1's
"All knobs" table, every ``python -m repro.cluster`` flag exactly one
row in §6's, and every row names a flag its parser declares.
"""

import re
from pathlib import Path

import pytest

from repro.cluster.__main__ import build_parser as cluster_parser
from repro.service.__main__ import build_parser as service_parser

OPERATIONS = Path(__file__).resolve().parents[2] / "docs" / "OPERATIONS.md"
_ROW = re.compile(r"^\| `(--[a-z][a-z0-9-]*)")


def _knob_rows(section: str) -> list[str]:
    """The flags named by the "All knobs" table of one ``## `` section."""
    text = OPERATIONS.read_text()
    text = text[text.index(f"\n## {section}"):]
    heading = "### All knobs\n"
    start = text.index(heading) + len(heading)
    following = re.search(r"^#+ ", text[start:], re.MULTILINE)
    table = text[start:start + following.start()]
    return [match[1] for line in table.splitlines()
            if (match := _ROW.match(line))]


@pytest.mark.parametrize("build_parser, section", [
    (service_parser, "1. Starting the daemon"),
    (cluster_parser, "6. Running a sharded cluster"),
], ids=["service", "cluster"])
def test_every_flag_has_exactly_one_knob_row(build_parser, section):
    flags = {option for action in build_parser()._actions
             for option in action.option_strings
             if option.startswith("--") and option != "--help"}
    rows = _knob_rows(section)
    duplicated = sorted({row for row in rows if rows.count(row) > 1})
    assert not duplicated, f"flags with more than one row: {duplicated}"
    missing = sorted(flags - set(rows))
    assert not missing, f"flags without a knob row: {missing}"
    unknown = sorted(set(rows) - flags)
    assert not unknown, f"knob rows naming no flag: {unknown}"
