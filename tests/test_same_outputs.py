"""Same outputs: every block that tools/same_outputs.py prints keeps its committed sha256.

tests/same_outputs.json holds one digest per block (CLI invocation, set of
seeded walks, library section), written by

    python tools/same_outputs.py CHECKOUT --digests > tests/same_outputs.json

The digests are of Python 3.11.7 with numpy 2.4.6: the last bits of scaled
totals depend on numpy's summation order, so another numpy may move blocks
that print scaled floats without any change to the package.  A block that
moves on purpose is regenerated, and the change that moves it names it.
"""

import importlib.util
import json
from pathlib import Path

import orthantwalks

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_block_keeps_its_digest():
    tool = _tool()
    expected = json.loads((ROOT / "tests" / "same_outputs.json").read_text())
    actual = tool.digests(tool.blocks(orthantwalks))
    moved = [name for name in expected if name in actual and actual[name] != expected[name]]
    missing = [name for name in expected if name not in actual]
    added = [name for name in actual if name not in expected]
    assert not (moved or missing or added), (
        f"moved: {moved}\nmissing: {missing}\nadded: {added}")
    assert list(actual) == list(expected)  # the print order too
