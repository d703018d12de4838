"""The Python floor that pyproject.toml and the README state holds for the source.

Every .py file under src/, tests/ and tools/ parses with the grammar of the
floor version, so no newer syntax slips in unseen.  Newer library attributes
(such as code.co_qualname, 3.11+) are not syntax; the tests that would read
them derive the value instead (`TestReachability`).
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(int(part) for part in re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M).groups())
SOURCES = sorted(path for part in ("src", "tests", "tools") for path in (ROOT / part).rglob("*.py"))


def test_readme_states_the_floor():
    assert "Requires Python >= %d.%d" % FLOOR in (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", SOURCES, ids=[str(path.relative_to(ROOT)) for path in SOURCES])
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
