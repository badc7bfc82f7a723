"""The operator catalogue in docs/OPERATIONS.md matches the family tables.

Every family the daemon (§3) or the gateway (§6) exposes has exactly one
catalogue row with its type and label names, and every ``repro_`` row
names a declared family — the tables in code are the one declaration.
"""

import re
from pathlib import Path

import pytest

from repro.cluster.gateway import GATEWAY_FAMILIES
from repro.obs.prometheus import SERVICE_FAMILIES

OPERATIONS = Path(__file__).resolve().parents[2] / "docs" / "OPERATIONS.md"
_ROW = re.compile(r"^\| `(?P<name>repro_[a-z0-9_]+)` \| (?P<kind>\w+) \| "
                  r"(?P<labels>[^|]*) \|")


def _section(text: str, heading: str) -> str:
    """The body under ``heading`` up to the next heading of any level."""
    start = text.index(heading + "\n") + len(heading) + 1
    following = re.search(r"^#+ ", text[start:], re.MULTILINE)
    return text[start:start + following.start()] if following else text[start:]


def _rows(section: str) -> dict[str, tuple[str, tuple[str, ...]]]:
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| `repro_"):
            continue
        match = _ROW.match(line)
        assert match, f"catalogue row is not one family per row: {line!r}"
        labels = tuple(re.findall(r"`([a-z_]+)`", match["labels"]))
        assert match["name"] not in rows, f"duplicate row {match['name']}"
        rows[match["name"]] = (match["kind"], labels)
    return rows


CATALOGUES = {
    "service": ("## 3. Metric catalogue", "repro", SERVICE_FAMILIES),
    "gateway": ("### Gateway metric catalogue", "repro_gateway",
                GATEWAY_FAMILIES),
}


@pytest.mark.parametrize("server", sorted(CATALOGUES))
def test_catalogue_rows_match_the_declared_families(server):
    heading, prefix, families = CATALOGUES[server]
    rows = _rows(_section(OPERATIONS.read_text(), heading))
    declared = {f"{prefix}_{family.name}": (family.kind, family.labels)
                for family in families}
    assert len(declared) == len(families), "a family is declared twice"
    missing = sorted(set(declared) - set(rows))
    assert not missing, f"families without a catalogue row: {missing}"
    undeclared = sorted(set(rows) - set(declared))
    assert not undeclared, f"catalogue rows naming no family: {undeclared}"
    for name, (kind, labels) in declared.items():
        assert rows[name] == (kind, labels), name
