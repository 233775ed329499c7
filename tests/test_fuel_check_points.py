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

Some closures are generated from source (`runtime._fused_maker`), so the
test also parses each string assigned at a module's top level that
mentions `st.fuel`, under the name the string is assigned to.  Such a
template must parse on its own, or its comparisons would go unseen.  It
also parses the source of every closure the templates make, an
operator's value and the statement that stores it, which must compare
no fuel either.
"""

import ast
from pathlib import Path

from srctrans.runtime import _INT_OPS, _SHAPES, _fused_source

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


def _templates(tree: ast.Module, module: str):
    """(qualified name, source) of each string that mentions st.fuel in
    the value of an assignment at the module's top level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            name = ", ".join(ast.unparse(t) for t in targets)
            for node in ast.walk(stmt.value):
                if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and "st.fuel" in node.value):
                    yield f"{module}.{name}", node.value


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def test_fuel_is_compared_only_at_the_check_points():
    found = set()
    for module, tree in _modules():
        found.update(_checking_functions(tree, module))
        for name, source in _templates(tree, module):
            found.update(_checking_functions(ast.parse(source), name))
    assert found == CHECK_POINTS


def test_the_fused_closure_templates_are_parsed():
    names = {name for module, tree in _modules() for name, _ in _templates(tree, module)}
    assert "runtime._SHAPES" in names


def test_no_generated_closure_compares_the_fuel():
    for shape in _SHAPES:
        for op in [*_INT_OPS, "==", "!="]:
            for store in (False, True):
                source = _fused_source(shape, op, store)
                assert "st.fuel -= " in source
                assert not set(_checking_functions(ast.parse(source), "make")), source
