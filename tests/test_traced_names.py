"""The benchmark harness traces conjlab callables by name: every name it
lists must resolve, or a traced run fails on getattr."""

import ast
import importlib

from conftest import REPO


def traced_names():
    """TRACED from conjbench/tracing.py, read from its source without
    importing or writing anything under conjbench/."""
    tree = ast.parse((REPO / "conjbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("conjbench/tracing.py defines no TRACED")


def test_traced_names_resolve():
    names = traced_names()
    assert names
    for prefix, module, attr in names:
        obj = importlib.import_module(f"conjlab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, (prefix, module, attr)
        assert callable(obj), prefix
