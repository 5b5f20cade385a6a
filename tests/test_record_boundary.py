"""Only ``markovian`` knows the smoothing record's layout and H's padded entries: no other
module of the package reads the record's ``runs``, ``steps`` or ``obs_rows``, the model's
``obs_entries``, or the backward pass's ``SMOOTH_BLOCK_BYTES``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "seqgp"
ATTRIBUTES = {"obs_entries", "runs", "steps", "obs_rows"}
NAMES = {"SMOOTH_BLOCK_BYTES"}


def record_reads(source: str) -> list[str]:
    """The attributes of ``ATTRIBUTES`` and the names of ``NAMES`` that a module reads,
    as an attribute, a bare name or an import, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ATTRIBUTES | NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name in NAMES:
            found.append((node.lineno, node.name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_check_finds_each_kind_of_read():
    source = "from .markovian import SMOOTH_BLOCK_BYTES\nimport numpy as np\nk = record.steps\n" \
             "positions, weights = sde.obs_entries\nblock = markovian.SMOOTH_BLOCK_BYTES // 8\n" \
             "for run in result.runs:\n    rows = run.rows\nsteps = obs_rows = 0\n"
    assert record_reads(source) == ["SMOOTH_BLOCK_BYTES (line 1)", "steps (line 3)", "obs_entries (line 4)",
                                    "SMOOTH_BLOCK_BYTES (line 5)", "runs (line 6)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "markovian.py"))
def test_only_markovian_reads_the_record_layout(module):
    assert record_reads((SRC / module).read_text(encoding="utf-8")) == []
