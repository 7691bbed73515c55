"""The end-to-end benchmark's layer entry points still resolve.

``perfbench/tracing.py`` wraps every ``(module, attribute, layer)`` entry
of ``LAYER_ENTRY_POINTS`` while a traced request runs; an entry whose
module or attribute has gone makes ``perfbench/run.py --trace 1`` crash.
``Class.method`` entries are patched on the class itself, so the method
must be defined in that class's ``__dict__``, not inherited.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _entry_points():
    """``LAYER_ENTRY_POINTS`` read from the source, without importing it."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_ENTRY_POINTS"
            for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYER_ENTRY_POINTS")


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize(
    "module_name, attr, layer", ENTRY_POINTS,
    ids=[f"{m}:{a}" for m, a, _ in ENTRY_POINTS],
)
def test_entry_point_resolves(module_name, attr, layer):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert meth in cls.__dict__, f"{attr} is not defined on {cls_name}"
        assert callable(cls.__dict__[meth])
    else:
        assert callable(getattr(module, attr))

