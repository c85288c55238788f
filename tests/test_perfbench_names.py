"""The functions the benchmark reports by name still exist in the program.

``perfbench/child.py`` reports the time and call count of each name in its
``PUBLIC`` table by matching the profiled code objects' ``co_name`` in that
layer's module, so a deleted or renamed function would read 0 calls without
an error.  ``PUBLIC`` is read from the source, so no benchmark module runs.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def public_table() -> dict:
    for node in ast.parse(CHILD.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PUBLIC" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py defines no PUBLIC table")


def test_every_reported_name_is_a_function_of_its_module():
    table = public_table()
    assert table
    for layer, names in table.items():
        module = importlib.import_module(f"bosonfermion.{layer}")
        for name in names:
            function = getattr(module, name, None)
            assert function is not None, f"{layer}.{name} is gone"
            assert function.__code__.co_name == name, (layer, name)
            assert Path(function.__code__.co_filename).resolve() == Path(module.__file__).resolve()
