"""Fuel is checked only where a run can be observed.

A closure spends its node's fuel and does not compare the balance.  The
balance is compared only at the check points below: before a trace event
(`emit`), at a call (`call_user`), before the final return event and
where the run ends (`Compiler.run`), before the on_item hook (the
closure of `Compiler.hooked`), and at each iteration of the three loops.
Together they stop a run before anything observable happens after the
fuel has run out, and before it can run on without bound.

This test parses every module under `src/srctrans` and lists the
functions, by qualified name, that contain a comparison on `st.fuel`.
A check anywhere else is code to delete; a check point missing from the
list is a run that may go on unseen or without bound.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srctrans"

CHECK_POINTS = {
    "runtime.emit",
    "runtime.call_user",
    "runtime.Compiler.run",
    "runtime.Compiler.hooked.hooked",
    "common.while_stmt.while_",
    "common._for_stmt.for_",
    "minilua._for_num.for_",
}


def _is_fuel(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "fuel"
            and isinstance(node.value, ast.Name) and node.value.id == "st")


def _checking_functions(tree: ast.Module, module: str):
    """The qualified name of each function with a comparison on st.fuel
    outside any function nested in it."""
    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
            elif isinstance(child, ast.Compare) and any(
                _is_fuel(n) for n in (child.left, *child.comparators)
            ):
                yield scope
            else:
                yield from visit(child, scope)

    return visit(tree, module)


def test_fuel_is_compared_only_at_the_check_points():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        found.update(_checking_functions(ast.parse(path.read_text()), path.stem))
    assert found == CHECK_POINTS
