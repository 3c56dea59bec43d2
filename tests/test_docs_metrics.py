"""The serving-metrics table in docs/observability.md lists only names
the code emits."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "observability.md"
SOURCE = ROOT / "src" / "repro"


def _documented_serve_metrics():
    """Every `serve.*` name in the first column of the doc's tables."""
    names = []
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `serve."):
            continue
        first_cell = line.split("|")[1]
        names.extend(re.findall(r"`(serve\.[^`]+)`", first_cell))
    return names


def _string_literals():
    literals = set()
    for path in SOURCE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    return literals


def test_serving_metrics_table_is_not_empty():
    assert len(_documented_serve_metrics()) >= 10


def test_every_documented_serving_metric_is_a_literal_in_the_code():
    literals = _string_literals()
    missing = [
        name for name in _documented_serve_metrics() if name not in literals
    ]
    assert missing == []
