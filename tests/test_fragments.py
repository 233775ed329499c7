"""Shared generic fragments: reserved sorts, helper constructors."""

import pytest

from srctrans.fragments import (
    ASSIGN,
    ASSIGN_L,
    ASSIGN_OP_EQUALS,
    BLOCK,
    IDENT,
    IDENT_L,
    LHS_L,
    MULTI_DECL,
    RHS_L,
    assert_reserved_disjoint,
    assign,
    generic_signature,
    ident,
    ident_names,
)
from srctrans.langs.base import get_language
from srctrans.terms import Atom, check_term


def test_ident():
    t = ident("x")
    assert t.kind == IDENT
    assert t.payload_values == ("x",)
    assert t.sort == IDENT_L


def test_assign_sorts():
    lang = get_language("minijs")
    term = lang.decompose(lang.parse("function main() { x = 1; }"))
    assigns = [t for t in _walk(term) if t.kind == ASSIGN]
    assert len(assigns) == 1
    a = assigns[0]
    rebuilt = assign(
        a.children[[c.sort for c in a.children].index(LHS_L)],
        a.children[[c.sort for c in a.children].index(RHS_L)],
    )
    assert rebuilt.sort == ASSIGN_L
    assert any(c.kind == ASSIGN_OP_EQUALS for c in rebuilt.children)
    check_term(rebuilt, lang.ips)


def _walk(t):
    yield t
    for c in t.children:
        yield from _walk(c)


def test_binder_names_single_and_list():
    lang = get_language("minilua")
    term = lang.decompose(lang.parse("local a, b = 1, 2\n"))
    decls = [t for t in _walk(term) if t.kind == MULTI_DECL]
    assert len(decls) == 1
    singles = decls[0].children[1]
    names = []
    for single in singles.children:
        names.extend(ident_names(single.children[1]))
    assert names == ["a", "b"]


def test_generic_signature_contains_core_kinds():
    sig = generic_signature()
    for kind in (IDENT, ASSIGN, BLOCK, MULTI_DECL):
        assert sig.contains(kind)


def test_reserved_disjoint():
    assert_reserved_disjoint([Atom("MiniC.ExprL")])
    with pytest.raises(Exception):
        assert_reserved_disjoint([IDENT_L])
