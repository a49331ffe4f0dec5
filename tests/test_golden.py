"""Golden CLI outputs: numbers to 12 significant digits, the rest exactly.

The files in tests/golden/ were written by tests/golden/update.py, which
regenerates them and prints every field that moves.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_update", GOLDEN_DIR / "update.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_every_golden_command_has_a_file():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(golden.COMMANDS)


@pytest.mark.parametrize("name", sorted(golden.COMMANDS))
def test_golden_output(name):
    recorded = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert golden.diff(recorded, golden.invoke(recorded["argv"])) == []


def test_golden_diff_tolerance():
    assert golden.diff({"x": 0.941482218014}, {"x": 0.941482218014 * (1 + 5e-13)}) == []
    assert golden.diff({"x": 1.0}, {"x": 1.0 + 2e-12}) != []
    assert golden.diff({"s": "a", "c": 1}, {"s": "b", "c": 1}) == ["/s: 'a' -> 'b'"]
    assert golden.diff({"c": 1}, {"c": True}) != []
    assert golden.diff([1, 2], [1]) != []
