"""recompose rejects exactly what the two-walk recompose rejected.

Recompose once built a surface modular tree from the IPS term (the
untrans cases) and then decoded it (`from_modular`).  It is now one walk
that reads the IPS term straight into a value, so the untrans cases
check what they read themselves.  Each term below holds one fault, and
`recompose` must raise what the two walks raised, with the same message:
`UnrepresentableTerm` from an untrans case, or `ForeignKind` for a node
that is not part of the language.  The table was recorded on the two
walks, except two rows the declaration cases once missed: an initializer
option of a foreign kind recomposed as no initializer, and a binder
identifier that is not the generic `Ident` gave `IndexError`.
`untrans_ips` then `from_modular` must raise the same.

Sorts are checked when a term is built, so a fault sits where its sort
allows: under an injection the cases read, or as a node of a made-up
kind of the right sort.
"""

import pytest

from helpers import without_origin
from srctrans.fragments import (
    ASSIGN,
    ASSIGN_L,
    ASSIGN_OP_L,
    BINDER_L,
    BLOCK,
    BLOCK_ITEM_L,
    BLOCK_L,
    COMMON_ATTRS_L,
    EMPTY_COMMON_ATTRS,
    IDENT_IS_BINDER,
    IDENT_L,
    LHS_L,
    LOCAL_VAR_INIT_L,
    MULTI_DECL_L,
    OPT_LOCAL_VAR_INIT_L,
    RHS_L,
    ident,
)
from srctrans.langs.base import get_language
from srctrans.schema import from_modular
from srctrans.terms import NodeKind, Term, build_list, mk_term
from srctrans.traversal import get_at, replace_at
from test_decompose_errors import TEXT


def _leaf(name: str, sort) -> Term:
    """A node of a kind no signature holds, of the given sort."""
    return mk_term(NodeKind(name, (), (), sort))


def _path(term: Term, pred) -> tuple:
    """The path of the first node, in pre-order, that pred holds for."""
    todo = [((), term)]
    while todo:
        path, t = todo.pop()
        if pred(t):
            return path
        todo.extend((path + (i,), c) for i, c in reversed(list(enumerate(t.children))))
    raise LookupError("no such node")


def _named(name: str):
    return lambda t: t.kind.name == name


def _starting(prefix: str):
    return lambda t: t.kind.name.startswith(prefix)


def _ending(suffix: str):
    return lambda t: t.kind.name.endswith(suffix)


def _edit(term: Term, pred, new) -> Term:
    """term with its first node that pred holds for replaced by new(node)."""
    path = _path(term, pred)
    return replace_at(term, path, new(get_at(term, path)))


def _child(i: int, new):
    """An edit of a node's child i."""
    return lambda t: mk_term(
        t.kind, t.payload_values, t.children[:i] + (new(t.children[i]),) + t.children[i + 1:]
    )


def _const(term: Term):
    return lambda _: term


def _as_generic(generic: NodeKind):
    """An injection node replaced by its child under a kind named like
    the generic child but of the injection's sort: the child without
    the injection above it."""
    return lambda t: mk_term(
        NodeKind(generic.name, (), generic.child_sorts, t.sort), (), t.children[0].children
    )


def faults(lname: str) -> dict:
    """label -> an IPS term of lname's small program with that one fault."""
    lang = get_language(lname)
    term = lang.decompose(lang.parse(TEXT[lname]))
    lit = _ending("Lit")  # the first literal is a declaration's initializer
    out = {
        "generic Assign without its injection":
            _edit(term, _starting("AssignIs"), _as_generic(ASSIGN)),
        "generic Block without its injection":
            _edit(term, _starting("GenericBlockIs"), _as_generic(BLOCK)),
        "expression of a foreign kind":
            _edit(term, lit, lambda t: _leaf("Stray", t.sort)),
        "expression of a look-alike kind":
            _edit(term, lit, lambda t: _leaf(t.kind.name, t.sort)),
        "identifier injection over a non-Ident":
            _edit(term, _named(f"IdentIs{lang.schema.name}Ident"),
                  _child(0, _const(_leaf("Name", IDENT_L)))),
        "assignment injection over a non-Assign":
            _edit(term, _starting("AssignIs"),
                  _child(0, _const(_leaf("Assignment", ASSIGN_L)))),
        "assignment operator not =":
            _edit(term, _named("AssignOpEquals"), _const(_leaf("AssignOpPlus", ASSIGN_OP_L))),
        "assignment target under the wrong injection":
            _edit(term, _ending("IsLhs"), _const(_leaf("Target", LHS_L))),
        "assignment source under the wrong injection":
            _edit(term, _ending("IsRhs"), _const(_leaf("Source", RHS_L))),
        "block injection over a non-Block":
            _edit(term, _starting("GenericBlockIs"),
                  _child(0, _const(_leaf("Stmts", BLOCK_L)))),
        "unexpected block item":
            _edit(term, _ending("StmtIsBlockItem"), _const(_leaf("Label", BLOCK_ITEM_L))),
        "declaration item over a non-declaration":
            _edit(term, _named("MultiLocalVarDeclIsBlockItem"),
                  _child(0, _const(_leaf("Decls", MULTI_DECL_L)))),
        "initializer under the wrong injection":
            _edit(term, _named("JustLocalVarInit"),
                  _child(0, _const(_leaf("Init", LOCAL_VAR_INIT_L)))),
        "binder of a foreign kind":
            _edit(term, _named("SingleLocalVarDecl"), _child(1, _const(_leaf("Pattern", BINDER_L)))),
        "initializer option of a foreign kind":
            _edit(term, _named("JustLocalVarInit"),
                  _const(_leaf("MaybeLocalVarInit", OPT_LOCAL_VAR_INIT_L))),
    }
    if lname == "minic":
        out["declaration attributes not a type"] = _edit(
            term, _named("MiniCTypeIsCommonAttrs"), _const(mk_term(EMPTY_COMMON_ATTRS))
        )
    else:
        out["declaration with attributes"] = _edit(
            term, _named("EmptyCommonAttrs"), _const(_leaf("Const", COMMON_ATTRS_L))
        )
    if lname != "minilua":
        out["binder identifier not an Ident"] = _edit(
            term, _named("SingleLocalVarDecl"),
            _child(1, _child(0, _const(_leaf("Name", IDENT_L)))),
        )
    if lname == "minilua":
        out["binder a single identifier"] = _edit(
            term, _named("SingleLocalVarDecl"),
            _child(1, _const(mk_term(IDENT_IS_BINDER, (), (ident("a"),)))),
        )
        for label, n in (("two binder groups", 2), ("no binder group", 0)):
            out[f"declaration with {label}"] = _edit(
                term, _named("MultiLocalVarDecl"),
                _child(1, lambda singles, n=n: build_list(
                    singles.kind.child_sorts[0], singles.children[:1] * n)),
            )
    return out


def _outcome(fn, term) -> str:
    try:
        fn(term)
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    return "no error"


def two_faults(lname: str) -> Term:
    """A term with a node of a foreign kind in the first declaration's
    initializer and a non-`=` operator in the assignment after it."""
    bad_op = faults(lname)["assignment operator not ="]
    return _edit(bad_op, _ending("Lit"), lambda t: _leaf("Stray", t.sort))


EXPECTED = {
    "minic": {
        "generic Assign without its injection":
            "ForeignKind: kind Assign is not part of MiniC",
        "generic Block without its injection":
            "ForeignKind: kind Block is not part of MiniC",
        "expression of a foreign kind":
            "ForeignKind: kind Stray is not part of MiniC",
        "expression of a look-alike kind":
            "ForeignKind: kind MiniC.IntLit is not part of MiniC",
        "identifier injection over a non-Ident":
            "UnrepresentableTerm: expected a generic identifier",
        "assignment injection over a non-Assign":
            "UnrepresentableTerm: expected a generic assignment",
        "assignment operator not =":
            "UnrepresentableTerm: unsupported assignment operator",
        "assignment target under the wrong injection":
            "UnrepresentableTerm: assignment target is not a MiniC expression",
        "assignment source under the wrong injection":
            "UnrepresentableTerm: assignment source is not a MiniC expression",
        "block injection over a non-Block":
            "UnrepresentableTerm: expected a generic block, got Stmts",
        "unexpected block item":
            "UnrepresentableTerm: unexpected block item Label",
        "declaration item over a non-declaration":
            "UnrepresentableTerm: expected a generic declaration",
        "initializer under the wrong injection":
            "UnrepresentableTerm: initializer is not a MiniC initializer",
        "binder of a foreign kind":
            "UnrepresentableTerm: MiniC binders are single identifiers",
        "declaration attributes not a type":
            "UnrepresentableTerm: declaration attributes are not a MiniC type",
        "initializer option of a foreign kind":
            "UnrepresentableTerm: expected a generic initializer option",
        "binder identifier not an Ident":
            "UnrepresentableTerm: expected a generic identifier",
    },
    "minijs": {
        "generic Assign without its injection":
            "ForeignKind: kind Assign is not part of MiniJS",
        "generic Block without its injection":
            "ForeignKind: kind Block is not part of MiniJS",
        "expression of a foreign kind":
            "ForeignKind: kind Stray is not part of MiniJS",
        "expression of a look-alike kind":
            "ForeignKind: kind MiniJS.NumLit is not part of MiniJS",
        "identifier injection over a non-Ident":
            "UnrepresentableTerm: expected a generic identifier",
        "assignment injection over a non-Assign":
            "UnrepresentableTerm: expected a generic assignment",
        "assignment operator not =":
            "UnrepresentableTerm: unsupported assignment operator",
        "assignment target under the wrong injection":
            "UnrepresentableTerm: assignment target is not a MiniJS expression",
        "assignment source under the wrong injection":
            "UnrepresentableTerm: assignment source is not a MiniJS expression",
        "block injection over a non-Block":
            "UnrepresentableTerm: expected a generic block, got Stmts",
        "unexpected block item":
            "UnrepresentableTerm: unexpected block item Label",
        "declaration item over a non-declaration":
            "UnrepresentableTerm: expected a generic declaration",
        "initializer under the wrong injection":
            "UnrepresentableTerm: initializer is not a MiniJS expression",
        "binder of a foreign kind":
            "UnrepresentableTerm: MiniJS binders are single identifiers",
        "declaration with attributes":
            "UnrepresentableTerm: MiniJS declarations carry no attributes",
        "initializer option of a foreign kind":
            "UnrepresentableTerm: expected a generic initializer option",
        "binder identifier not an Ident":
            "UnrepresentableTerm: expected a generic identifier",
    },
    "minilua": {
        "generic Assign without its injection":
            "ForeignKind: kind Assign is not part of MiniLua",
        "generic Block without its injection":
            "ForeignKind: kind Block is not part of MiniLua",
        "expression of a foreign kind":
            "ForeignKind: kind Stray is not part of MiniLua",
        "expression of a look-alike kind":
            "ForeignKind: kind MiniLua.NumLit is not part of MiniLua",
        "identifier injection over a non-Ident":
            "UnrepresentableTerm: expected a generic identifier",
        "assignment injection over a non-Assign":
            "UnrepresentableTerm: expected a generic assignment",
        "assignment operator not =":
            "UnrepresentableTerm: unsupported assignment operator",
        "assignment target under the wrong injection":
            "UnrepresentableTerm: assignment target is not a MiniLua target list",
        "assignment source under the wrong injection":
            "UnrepresentableTerm: assignment source is not a MiniLua expression list",
        "block injection over a non-Block":
            "UnrepresentableTerm: expected a generic block, got Stmts",
        "unexpected block item":
            "UnrepresentableTerm: unexpected block item Label",
        "declaration item over a non-declaration":
            "UnrepresentableTerm: expected a generic declaration",
        "initializer under the wrong injection":
            "UnrepresentableTerm: initializer is not a MiniLua expression list",
        "binder of a foreign kind":
            "UnrepresentableTerm: MiniLua binders are name lists",
        "declaration with attributes":
            "UnrepresentableTerm: MiniLua declarations carry no attributes",
        "binder a single identifier":
            "UnrepresentableTerm: MiniLua binders are name lists",
        "declaration with two binder groups":
            "UnrepresentableTerm: MiniLua declarations hold a single binder group",
        "declaration with no binder group":
            "UnrepresentableTerm: MiniLua declarations hold a single binder group",
        "initializer option of a foreign kind":
            "UnrepresentableTerm: expected a generic initializer option",
    },
}


def _two_walks(lang):
    return lambda term: from_modular(lang.modularized, lang.untrans_ips(term))


@pytest.mark.parametrize("lname", sorted(EXPECTED))
def test_recompose_rejects_what_the_two_walks_rejected(lname):
    lang = get_language(lname)
    ast = lang.parse(TEXT[lname])
    assert lang.recompose(without_origin(lang.decompose(ast))) == ast
    terms = faults(lname)
    assert {label: _outcome(lang.recompose, t) for label, t in terms.items()} == EXPECTED[lname]
    assert {label: _outcome(_two_walks(lang), t) for label, t in terms.items()} == EXPECTED[lname]


@pytest.mark.parametrize("lname", sorted(EXPECTED))
def test_the_first_fault_in_walk_order_is_reported(lname):
    # The two walks reported "UnrepresentableTerm: unsupported assignment
    # operator" here: every untrans case ran before any ForeignKind check.
    lang = get_language(lname)
    want = f"ForeignKind: kind Stray is not part of {lang.schema.name}"
    assert _outcome(lang.recompose, two_faults(lname)) == want


@pytest.mark.parametrize("lname", sorted(EXPECTED))
def test_a_look_alike_identifier_is_rejected(lname):
    # Kinds named like the generic Ident, of its sort, with other
    # payloads.  The two walks checked the payload only by building the
    # surface identifier: PayloadMismatch for an Int, IndexError for
    # none, and a second String went unnoticed.
    lang = get_language(lname)
    term = lang.decompose(lang.parse(TEXT[lname]))
    for payloads, values in ((("Int",), (5,)), ((), ()), (("String", "String"), ("a", "b"))):
        bad = mk_term(NodeKind("Ident", payloads, (), IDENT_L), values)
        t = _edit(term, _named(f"IdentIs{lang.schema.name}Ident"), _child(0, _const(bad)))
        assert _outcome(lang.recompose, t) == "UnrepresentableTerm: expected a generic identifier"
