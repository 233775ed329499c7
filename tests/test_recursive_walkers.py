"""Which functions still recurse (ROADMAP items 2, 3 and 5).

A walker that calls itself once per nesting level fails on deep enough
input with `RecursionError`, at a depth set by Python's recursion limit.
Recompose, the statement printers, MiniC's dangling-else test,
`terms.to_sexpr` and the frontends' item walks now run on explicit
stacks, so they must not recurse.

This test parses every module under `src/srctrans` and lists the
functions, by qualified name, that reach themselves through names
within their module: a call by name, or a name passed on for a callee
to call, as a statement parser passes itself to `parse_c_stmt`.  The
path may run directly or through a sibling or nested function.  A name
resolves to the function it names in the nearest enclosing function or
in the module, unless a parameter or an assignment in between shadows
it.  Within a class, `self.<name>` resolves to the method of that name
defined in the class or in a base class of the same module; a method
reached through any other attribute (`comp.expr`) or through a table of
functions (`Compiler.EXPR`) is not followed, so the run compiler's
`Compiler.expr`, `stmt` and `block`, which recurse that way, are not
found.
The list that remains is the work left for ROADMAP items 2, 3 and 5,
and a few functions whose recursion does not follow a program's
nesting.  A function that newly recurses must be added here on
purpose.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srctrans"

RECURSIVE = {
    # statement parsers (item 2)
    "minic._parse_block",
    "minic._parse_stmt",
    "minijs._parse_block",
    "minijs._parse_stmt",
    "minilua._parse_block",
    "minilua._parse_else_tail",
    "minilua._parse_stmt",
    # decompose, the expression printer and flow insertion (item 3)
    "schema.walker.walk",
    "common.expr_printer.show",
    "flow._insert_into_block",
    # the CFG builder and tac's walks, which recurse through self
    # (item 3)
    "flow._Builder.walk_block",
    "flow._Builder.after_item",
    "tac._BodyPass.walk_block",
    "tac._BodyPass.walk_item",
    "tac._BodyPass.walk_while",
    "tac._BodyPass.walk_for",
    "tac._BodyPass.walk_for_num",
    "tac._BodyPass.flatten_top",
    "tac._BodyPass.flatten_assign",
    "tac._BodyPass.flatten_target",
    "tac._BodyPass.hoist_operands",
    "tac._BodyPass.lower_shortcircuit",
    "tac._BodyPass.to_atom",
    # tac's test for an atom, through member accesses (`TC.cov`)
    "base.TacOps.is_atomic",
    # the run compiler's elseif chain (item 5)
    "minilua._else_tail",
    # the run compiler's test of a condition, through nested `and` and
    # `or`: one frame per operator, no deeper than `comp.expr` already
    # goes on the same condition
    "runtime.Compiler.test",
    # runtime values: MiniJS renders and compares nested arrays on an
    # explicit stack and hands each element that is not an array back to
    # the function that called; MiniC's arrays hold only integers
    "minic._render",
    "minijs._render",
    "minijs._render_array",
    "minijs._same_arrays",
    "minijs._same_value",
    # the program generator, down to a depth it is given
    "gen._Emitter.bool_expr",
    "gen._Emitter.int_expr",
    # walks over a schema's types and sorts, not over a program
    "schema._arg_codec",
    "schema._parse_one_type",
    "schema._translate_sort",
    "schema.validate_schema.check",
    "terms.sort_name",
}

# The walks moved onto explicit stacks: none may recurse again.
STACKED = {
    "schema.reader.read",
    "terms.to_sexpr",
    "minic._dangles",
    "minic._print_block",
    "minic._print_body",
    "minic._print_stmt",
    "minic._print_item",
    "minijs._print_block",
    "minijs._print_block_body",
    "minijs._print_stmt",
    "minilua._print_block",
    "minilua._print_stmt",
    "minilua._funcs",
    "minic.item_walk.walk_body",
    "minic.item_walk.walk_item",
    "minic.item_walk.walk_stmt",
    "minijs.item_walk.walk_block",
    "minijs.item_walk.walk_stmt",
    "minilua.item_walk.walk_block",
    "minilua.item_walk.walk_stmt",
    "minilua.item_walk.walk_tail",
}


class _Scope:
    """A function: its qualified name, the functions defined directly in
    it, the names it binds otherwise, and its enclosing function."""

    def __init__(self, name: str, parent: "_Scope | None", methods: dict):
        self.name = name
        self.parent = parent
        # the methods `self.<name>` reaches, by name
        self.methods = methods
        self.defs: dict[str, str] = {}
        self.bound: set[str] = set()
        self.loads: set[str] = set()
        self.self_calls: set[str] = set()


def _scopes(tree: ast.Module, module: str) -> list[_Scope]:
    top = _Scope(module, None, {})
    out = []
    # each class's methods, by the class's qualified name
    classes: dict[str, dict[str, str]] = {}

    def visit(node: ast.AST, qual: str, scope: _Scope, methods: dict):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qual}.{child.name}"
                if scope is not None:
                    scope.defs[child.name] = name
                inner = _Scope(name, scope or top, methods)
                args = child.args
                inner.bound.update(a.arg for a in (*args.posonlyargs, *args.args,
                                                   *args.kwonlyargs))
                inner.bound.update(a.arg for a in (args.vararg, args.kwarg) if a)
                out.append(inner)
                visit(child, name, inner, methods)
            elif isinstance(child, ast.ClassDef):
                # a method is not visible by its bare name, only through self
                cls = f"{qual}.{child.name}"
                own = {}
                for base in child.bases:
                    if isinstance(base, ast.Name):
                        own.update(classes.get(f"{module}.{base.id}", {}))
                own.update({f.name: f"{cls}.{f.name}" for f in child.body
                            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))})
                classes[cls] = own
                visit(child, cls, None, own)
            else:
                if isinstance(child, ast.Name) and scope is not None:
                    target = scope.loads if isinstance(child.ctx, ast.Load) else scope.bound
                    target.add(child.id)
                elif (isinstance(child, ast.Attribute) and scope is not None
                        and isinstance(child.value, ast.Name) and child.value.id == "self"
                        and child.attr in scope.methods):
                    scope.self_calls.add(scope.methods[child.attr])
                visit(child, qual, scope, methods)

    visit(tree, module, top, {})
    return out


def _calls(scope: _Scope) -> set[str]:
    """The functions scope's names and `self.<name>` attributes resolve
    to."""
    found = set(scope.self_calls)
    for name in scope.loads:
        s = scope
        while s is not None:
            if name in s.defs:
                found.add(s.defs[name])
                break
            if name in s.bound:
                break
            s = s.parent
    return found


def recursive_functions() -> set[str]:
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        scopes = _scopes(ast.parse(path.read_text()), path.stem)
        graph = {s.name: _calls(s) for s in scopes}
        for start in graph:
            seen, todo = set(), list(graph[start])
            while todo:
                name = todo.pop()
                if name == start:
                    found.add(start)
                    break
                if name not in seen:
                    seen.add(name)
                    todo.extend(graph.get(name, ()))
    return found


def test_only_the_listed_functions_recurse():
    assert recursive_functions() == RECURSIVE


def test_recompose_and_the_printers_take_no_frame_per_level():
    assert not recursive_functions() & STACKED
