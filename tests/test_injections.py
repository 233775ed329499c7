"""Sort injection tables: declaration, embedding, projection, composition."""

import pytest

from srctrans.injections import (
    DuplicateInjection,
    IllTypedPath,
    InjectionDecl,
    InjectionTable,
    MissingEdge,
    NoInjection,
)
from srctrans.terms import Atom, NodeKind, mk_term

A, B, C = Atom("A"), Atom("B"), Atom("C")
MKA = NodeKind("MkA", ("Int",), (), A)
WRAP_AB = NodeKind("WrapAB", (), (A,), B)
WRAP_BC = NodeKind("WrapBC", (), (B,), C)
PAD = NodeKind("Pad", (), (A, A), B)  # two children: no chain kind
TAGGED = NodeKind("Tagged", ("Int",), (A,), B)  # a payload: no chain kind


def table():
    t = InjectionTable()
    t.declare(InjectionDecl(A, B, (WRAP_AB,)))
    t.declare(InjectionDecl(B, C, (WRAP_BC,)))
    return t


def a(n=1):
    return mk_term(MKA, (n,))


def test_inj_proj_identity():
    t = table()
    term = a(5)
    up = t.inj(term, B)
    assert up.kind == WRAP_AB
    assert t.proj(up, A) == term


def test_proj_mismatch_returns_none():
    t = table()
    # a B-term built through a different kind does not unwrap
    other = mk_term(PAD, (), (a(1), a(2)))
    assert t.proj(other, A) is None
    # a C-term wrapping a B-chain does not project all the way from A
    up = t.inj(t.inj(a(), B), C)
    assert t.proj(up, B) is not None
    # the outer wrapper matches, the inner one does not
    t.compose(A, B, C)
    assert t.proj(mk_term(WRAP_BC, (), (other,)), A) is None


def test_missing_edge():
    t = table()
    with pytest.raises(NoInjection):
        t.inj(a(), Atom("Z"))


def test_compose():
    t = table()
    t.compose(A, B, C)
    term = a(9)
    direct = t.inj(term, C)
    assert direct == t.inj(t.inj(term, B), C)
    assert t.proj(direct, A) == term
    assert t.lookup(A, C).derived


def test_compose_requires_edges():
    t = table()
    with pytest.raises(MissingEdge):
        t.compose(B, A, C)


def test_chain_kinds_have_one_child_and_no_payloads():
    t = InjectionTable()
    with pytest.raises(IllTypedPath):
        t.declare(InjectionDecl(A, B, (PAD,)))
    with pytest.raises(IllTypedPath):
        t.declare(InjectionDecl(A, B, (TAGGED,)))
    with pytest.raises(IllTypedPath):
        t.declare(InjectionDecl(A, C, (TAGGED, WRAP_BC)))
    assert not t.has(A, B) and not t.has(A, C)


def test_ill_typed_chain_rejected():
    t = InjectionTable()
    with pytest.raises(IllTypedPath):
        t.declare(InjectionDecl(B, C, (WRAP_AB,)))


def test_duplicate_derived_paths_conflict():
    # a derived edge, then a second derived or a declared one for the pair
    t = table()
    t.compose(A, B, C)
    with pytest.raises(DuplicateInjection):
        t.compose(A, B, C)
    with pytest.raises(DuplicateInjection):
        t.declare(InjectionDecl(A, C, (WRAP_AB, WRAP_BC)))
    assert t.lookup(A, C).derived


def test_declared_beats_derived():
    # a declared edge stays; a derived one for the same pair raises
    t = table()
    t.declare(InjectionDecl(A, C, (WRAP_AB, WRAP_BC)))
    with pytest.raises(DuplicateInjection):
        t.compose(A, B, C)
    assert not t.lookup(A, C).derived
    # and so does an explicit redeclaration
    with pytest.raises(DuplicateInjection):
        t.declare(InjectionDecl(A, C, (WRAP_AB, WRAP_BC)))
    with pytest.raises(DuplicateInjection):
        t.declare(InjectionDecl(A, B, (WRAP_AB,)))


def test_dump_deterministic_and_sorted():
    t = table()
    t.compose(A, B, C)
    d = t.dump()
    assert d == t.dump()
    lines = d.strip().split("\n")
    assert lines == sorted(lines)
    assert any("(derived)" in line for line in lines)
