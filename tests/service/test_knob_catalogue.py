"""The knob table in docs/OPERATIONS.md §1 matches the daemon's parser.

Every ``python -m repro.service`` flag has exactly one row in "All
knobs", and every row names a flag the parser declares.
"""

import re
from pathlib import Path

from repro.service.__main__ import build_parser

OPERATIONS = Path(__file__).resolve().parents[2] / "docs" / "OPERATIONS.md"
_ROW = re.compile(r"^\| `(--[a-z][a-z0-9-]*)")


def _knob_rows() -> list[str]:
    text = OPERATIONS.read_text()
    heading = "### All knobs\n"
    start = text.index(heading) + len(heading)
    following = re.search(r"^#+ ", text[start:], re.MULTILINE)
    section = text[start:start + following.start()]
    return [match[1] for line in section.splitlines()
            if (match := _ROW.match(line))]


def test_every_daemon_flag_has_exactly_one_knob_row():
    flags = {option for action in build_parser()._actions
             for option in action.option_strings
             if option.startswith("--") and option != "--help"}
    rows = _knob_rows()
    duplicated = sorted({row for row in rows if rows.count(row) > 1})
    assert not duplicated, f"flags with more than one row: {duplicated}"
    missing = sorted(flags - set(rows))
    assert not missing, f"flags without a knob row: {missing}"
    unknown = sorted(set(rows) - flags)
    assert not unknown, f"knob rows naming no flag: {unknown}"
