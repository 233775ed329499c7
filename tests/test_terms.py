"""Sorted term construction and the container kinds."""

import pickle

import pytest

from srctrans import terms
from srctrans.terms import (
    ArityMismatch,
    Atom,
    ListOf,
    NodeKind,
    PairOf,
    PayloadMismatch,
    SortMismatch,
    build_list,
    build_pair,
    check_term,
    is_container_kind,
    iter_subterms,
    list_kind,
    mk_term,
    sort_name,
    to_sexpr,
)

E = Atom("E")
LIT = NodeKind("Lit", ("Int",), (), E)
ADD = NodeKind("Add", (), (E, E), E)
MANY = NodeKind("Many", (), (ListOf(E),), E)


def lit(n):
    return mk_term(LIT, (n,))


def test_mk_term_basic():
    t = mk_term(ADD, (), (lit(1), lit(2)))
    assert t.sort == E
    assert t.children[0].payload_values == (1,)


def test_payload_type_checked():
    with pytest.raises(PayloadMismatch):
        mk_term(LIT, ("x",))
    # bool is not an Int payload
    with pytest.raises(PayloadMismatch):
        mk_term(LIT, (True,))


def test_child_sort_checked():
    other = NodeKind("Other", (), (), Atom("F"))
    with pytest.raises(SortMismatch):
        mk_term(ADD, (), (lit(1), mk_term(other)))
    with pytest.raises(ArityMismatch):
        mk_term(ADD, (), (lit(1),))


def test_kind_sorts_are_interned():
    a = NodeKind("A", (), (ListOf(Atom("E")),), Atom("E"))
    b = NodeKind("B", (), (ListOf(Atom("E")),), Atom("E"))
    assert a.child_sorts[0] is b.child_sorts[0]
    assert a.produced is b.produced is ADD.child_sorts[0]


def test_equal_sorts_and_kinds_are_one_object():
    assert Atom("E") is E and ListOf(Atom("E")) is ListOf(E)
    assert PairOf(E, ListOf(E)) is PairOf(Atom("E"), ListOf(Atom("E")))
    assert NodeKind("Add", [], [Atom("E"), E], Atom("E")) is ADD
    assert pickle.loads(pickle.dumps(ADD)) is ADD
    assert "__eq__" not in vars(NodeKind)
    # a kind that differs in any one field is another object
    for other in (
        NodeKind("Sum", (), (E, E), E),
        NodeKind("Add", ("Int",), (E, E), E),
        NodeKind("Add", (), (E, Atom("F")), E),
        NodeKind("Add", (), (E, E), Atom("F")),
    ):
        assert other is not ADD and other != ADD
    # a kind with a bad payload type enters no table
    interned = len(terms._INTERN)
    with pytest.raises(ValueError, match="bad payload type"):
        NodeKind("Bad", ("Float",), (), E)
    assert len(terms._INTERN) == interned
    # a child of the wrong sort still raises
    with pytest.raises(SortMismatch):
        mk_term(ADD, (), (lit(1), mk_term(NodeKind("Lit", ("Int",), (), Atom("F")), (1,))))


def test_payload_checked_unless_both_sides_empty():
    with pytest.raises(ArityMismatch):
        mk_term(LIT)
    with pytest.raises(ArityMismatch):
        mk_term(ADD, (1,), (lit(1), lit(2)))
    assert mk_term(ADD, [], (lit(1), lit(2))).payload_values == ()


def test_list_roundtrip():
    items = [lit(i) for i in range(4)]
    t = build_list(E, items)
    assert t.sort == ListOf(E)
    assert t.children == tuple(items)
    assert build_list(E, []).children == ()


def test_container_kinds_memoized():
    assert list_kind(E) is list_kind(Atom("E"))
    a, b = build_list(E, [lit(1)]), build_list(E, [])
    assert a.kind is b.kind is list_kind(E)


def test_list_kind_takes_any_number_of_elements():
    for n in (0, 1, 5):
        t = mk_term(list_kind(E), (), [lit(i) for i in range(n)])
        assert t.kind.name == "ListF" and is_container_kind(t.kind)
        assert t.children == tuple(lit(i) for i in range(n))
        check_term(t)
        check_term(mk_term(MANY, (), (t,)))


def test_pair_container():
    p = build_pair(lit(1), lit(2))
    assert p.kind.name == "PairF"
    assert is_container_kind(p.kind)


def test_check_term_against_signature():
    from srctrans.terms import Signature, UnknownKind

    sig = Signature("S", (LIT, ADD))
    check_term(mk_term(ADD, (), (lit(1), lit(2))), sig)
    check_term(build_list(E, [lit(1)]), sig)  # containers implicit
    with pytest.raises(UnknownKind):
        check_term(mk_term(MANY, (), (build_list(E, []),)), sig)


def test_sexpr_deterministic():
    t = mk_term(ADD, (), (lit(1), lit(2)))
    assert to_sexpr(t) == to_sexpr(t)
    assert "Add" in to_sexpr(t)


def test_iter_subterms_preorder():
    t = mk_term(ADD, (), (lit(1), lit(2)))
    names = [s.kind.name for s in iter_subterms(t)]
    assert names == ["Add", "Lit", "Lit"]


def test_sort_name():
    assert sort_name(ListOf(E)) == "[E]"
