"""Sorted term construction and the container kinds."""

import pytest

from srctrans.terms import (
    ArityMismatch,
    Atom,
    ListOf,
    NodeKind,
    PayloadMismatch,
    SortMismatch,
    build_list,
    build_option,
    build_pair,
    check_term,
    extract_list,
    is_container_kind,
    iter_subterms,
    map_list,
    mk_term,
    project,
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


def test_sort_check_is_structural_not_identity():
    # A sort that escaped interning: equal to E but another object.
    stray = NodeKind("Stray", ("Int",), (), E)
    object.__setattr__(stray, "produced", Atom("E"))
    assert stray.produced == ADD.child_sorts[0]
    assert stray.produced is not ADD.child_sorts[0]
    t = mk_term(ADD, (), (mk_term(stray, (1,)), lit(2)))
    assert t.children[0].kind is stray
    object.__setattr__(stray, "produced", Atom("F"))
    with pytest.raises(SortMismatch):
        mk_term(ADD, (), (mk_term(stray, (1,)), lit(2)))


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
    assert extract_list(t) == items
    assert extract_list(build_list(E, [])) == []


def test_map_list_preserves_shape():
    t = build_list(E, [lit(1), lit(2)])
    out = map_list(lambda x: mk_term(LIT, (x.payload_values[0] * 10,)), t)
    assert [x.payload_values[0] for x in extract_list(out)] == [10, 20]


def test_container_kinds_memoized():
    from srctrans.terms import cons_kind, nil_kind

    assert nil_kind(E) is nil_kind(Atom("E"))
    assert cons_kind(E) is cons_kind(Atom("E"))
    a, b = build_list(E, [lit(1)]), build_list(E, [lit(2)])
    assert a.kind is b.kind and a.children[1].kind is b.children[1].kind


def test_pair_and_option():
    p = build_pair(lit(1), lit(2))
    assert p.kind.name == "PairF"
    assert build_option(E, None).kind.name == "NothingF"
    some = build_option(E, lit(3))
    assert some.kind.name == "JustF"
    assert is_container_kind(some.kind)


def test_project():
    t = mk_term(ADD, (), (lit(1), lit(2)))
    got = project(t, ADD)
    assert got is not None and len(got[1]) == 2
    assert project(t, LIT) is None


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
