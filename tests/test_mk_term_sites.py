"""mk_term is called only to rebuild a node whose kind was read from a term.

Every node kind has its own builder (`kind.build`), which checks the
node against the kind's shape inline.  Code that knows the kind it
builds calls that builder.  `mk_term` takes the kind as an argument and
is for code that rebuilds a node of a kind it read from another node,
such as a traversal that rebuilds a parent over new children.

This test parses every module under `src/srctrans` and requires the
first argument of each `mk_term(...)` call to be `<x>.kind`, where `<x>`
is a term: a `.children[...]` element, or a name that the enclosing
function annotates as `Term` or reads `.children` or `.payload_values`
of.  Any other first argument names a kind the code knows, and should
be built through that kind's builder.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srctrans"

_TERM_FIELDS = {"children", "payload_values"}


def _term_names(func: ast.AST) -> set:
    """The names func uses as terms: those annotated `Term` and those it
    reads a term field of."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.arg) and isinstance(node.annotation, ast.Name) \
                and node.annotation.id == "Term":
            names.add(node.arg)
        elif isinstance(node, ast.Attribute) and node.attr in _TERM_FIELDS \
                and isinstance(node.value, ast.Name):
            names.add(node.value.id)
    return names


def _is_term(node: ast.AST, terms: set) -> bool:
    if isinstance(node, ast.Name):
        return node.id in terms
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "children")


def _bad_sites(tree: ast.Module, module: str):
    """`module:line` of each mk_term call whose kind is not read from a
    term, with the enclosing top-level function's term names in scope."""
    for top in tree.body:
        terms = _term_names(top)
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "mk_term"):
                continue
            kind = node.args[0] if node.args else None
            if not (isinstance(kind, ast.Attribute) and kind.attr == "kind"
                    and _is_term(kind.value, terms)):
                yield f"{module}:{node.lineno}"


def mk_term_sites_not_rebuilding(package: Path = PACKAGE) -> list:
    found = []
    for path in sorted(package.rglob("*.py")):
        found.extend(_bad_sites(ast.parse(path.read_text()), path.stem))
    return found


def test_mk_term_only_rebuilds_a_kind_read_from_a_term():
    assert mk_term_sites_not_rebuilding() == []


def test_the_guard_flags_a_known_kind():
    tree = ast.parse(
        "def f(t: Term, u):\n"
        "    mk_term(t.kind, (), ())\n"
        "    mk_term(u.children[0].kind, (), ())\n"
        "    mk_term(BLOCK, (), ())\n"
        "    mk_term(codec.kind, (), ())\n"
    )
    assert list(_bad_sites(tree, "m")) == ["m:4", "m:5"]
