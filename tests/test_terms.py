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


# ---------------------------------------------------------------------------
# Builders: `kind.build(*args)` is `mk_term(kind, args[:n], args[n:])` for
# a kind with n payloads, on good input and on bad.

_SAMPLE = {"Int": 7, "Bool": True, "String": "x"}
_WRONG_CLASS = {"Int": "x", "Bool": "x", "String": 7}


def _leaf(sort):
    """A term of `sort`, built from kinds outside any signature."""
    if isinstance(sort, ListOf):
        return build_list(sort.elem, [_leaf(sort.elem)])
    if isinstance(sort, PairOf):
        return build_pair(_leaf(sort.first), _leaf(sort.second))
    return NodeKind(f"Leaf{sort_name(sort)}", (), (), sort).build()


def _other_sort(sort):
    return Atom("Elsewhere") if sort is not Atom("Elsewhere") else E


def _builtin_kinds():
    """The kinds of the three languages (surface and IPS), the generic
    fragments and the prim boxes, with the list and pair kinds of their
    child sorts."""
    from srctrans.fragments import GENERIC_KINDS
    from srctrans.langs.base import get_language, language_names
    from srctrans.schema import PRIM_BOX_KINDS
    from srctrans.terms import pair_kind

    kinds = {}
    for name in language_names():
        lang = get_language(name)
        kinds.update(dict.fromkeys(lang.modularized.signature.kinds))
        kinds.update(dict.fromkeys(lang.ips.kinds))
    kinds.update(dict.fromkeys(GENERIC_KINDS))
    kinds.update(dict.fromkeys(PRIM_BOX_KINDS.values()))
    for kind in list(kinds):
        for sort in kind.child_sorts:
            if isinstance(sort, ListOf):
                kinds[list_kind(sort.elem)] = None
            elif isinstance(sort, PairOf):
                kinds[pair_kind(sort.first, sort.second)] = None
    return list(kinds)


# Kinds of shapes that no built-in kind has: their builders run mk_term's
# checks on every node.
_ANY_SHAPE_KINDS = (
    NodeKind("TwoPayloads", ("Int", "String"), (E,), E),
    NodeKind("SixChildren", (), (E, E, ListOf(E), E, E, Atom("F")), E),
    NodeKind("ListF", ("Bool",), (E,), ListOf(E)),  # a payload before the elements
)


def _builder_kinds():
    from srctrans.schema import PRIM_BOX_KINDS
    from srctrans.terms import pair_kind

    # no bundled language has a pair; these stand for pairs of every shape
    pairs = [pair_kind(E, ListOf(E)), pair_kind(PairOf(E, E), PRIM_BOX_KINDS["Int"].produced)]
    return [*_builtin_kinds(), *pairs, *_ANY_SHAPE_KINDS]


def _bad_inputs(kind):
    """(what, args, the exception they raise) of each bad input that the
    kind's shape allows."""
    payloads = [_SAMPLE[p] for p in kind.payloads]
    children = [_leaf(s) for s in kind.child_sorts]
    for i, p in enumerate(kind.payloads):
        yield f"payload {i} of a wrong class", [
            *payloads[:i], _WRONG_CLASS[p], *payloads[i + 1:], *children], PayloadMismatch
        if p == "Int":
            yield f"payload {i} a bool", [
                *payloads[:i], True, *payloads[i + 1:], *children], PayloadMismatch
    if payloads:
        yield "a payload short", payloads[:-1], ArityMismatch
    if kind.name != "ListF":
        yield "a child more", [*payloads, *children, _leaf(E)], ArityMismatch
        if children:
            yield "a child short", [*payloads, *children[:-1]], ArityMismatch
    for i, sort in enumerate(kind.child_sorts):
        for what, bad in (("a non-term", "x"), ("of the wrong sort", _leaf(_other_sort(sort)))):
            yield f"child {i} {what}", [
                *payloads, *children[:i], bad, *children[i + 1:]], SortMismatch


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return type(e), str(e)


def test_builders_agree_with_mk_term():
    kinds = _builder_kinds()
    assert {k.name for k in kinds} >= {"ListF", "PairF", "IntBox", "BoolBox", "StringBox"}
    assert set(_ANY_SHAPE_KINDS) <= set(kinds)
    checked = 0
    for kind in kinds:
        n = len(kind.payloads)
        args = [_SAMPLE[p] for p in kind.payloads] + [_leaf(s) for s in kind.child_sorts]
        built = kind.build(*args, origin="o")
        assert built == mk_term(kind, args[:n], args[n:]) and built.origin == "o"
        assert kind.build.kind is kind
        for what, bad, raised in _bad_inputs(kind):
            got = _outcome(kind.build, *bad)
            assert isinstance(got, tuple) and got[0] is raised, (kind, what, got)
            assert got == _outcome(mk_term, kind, bad[:n], bad[n:]), (kind, what)
            checked += 1
    assert checked > 500


def _has_any_shape_builder(kind):
    return kind.build.__code__ is terms._any_shape_builder(kind).__code__


# The built-in kinds whose builders run mk_term's checks on every node:
# those of no shape that makes at least 1 % of the builder calls (one
# payload and one or two children, or four or five children).
ANY_SHAPE_BUILTIN_KINDS = [
    "MiniC.BinE", "MiniC.ForStmt", "MiniC.FuncDef", "MiniC.UnaryE",
    "MiniJS.BinE", "MiniJS.ForStmt", "MiniJS.MemberE", "MiniJS.UnaryE",
    "MiniLua.BinE", "MiniLua.ForStmt", "MiniLua.MemberE", "MiniLua.UnaryE",
]


def test_builtin_kinds_of_the_rare_shapes_take_the_any_shape_builder():
    kinds = _builtin_kinds()
    assert len(kinds) > 150
    assert sorted(k.name for k in kinds if _has_any_shape_builder(k)) == ANY_SHAPE_BUILTIN_KINDS
    assert all(_has_any_shape_builder(k) for k in _ANY_SHAPE_KINDS)


def test_every_maker_serves_a_builtin_kind():
    shapes = {(len(k.payloads), len(k.child_sorts), k.name == "ListF") for k in _builtin_kinds()}
    assert set(terms._MAKERS) <= shapes


def test_list_builder_takes_any_number_of_elements():
    build = list_kind(E).build
    for n in (0, 1, 5):
        items = [lit(i) for i in range(n)]
        assert build(*items) == mk_term(list_kind(E), (), items)
    bad = [lit(1), _leaf(Atom("F")), "x"]
    assert _outcome(build, *bad) == _outcome(mk_term, list_kind(E), (), bad)


# ---------------------------------------------------------------------------
# A Term is a named tuple of its fields, and a node, not a sequence


def _term():
    return ADD.build(lit(1), lit(2), origin="o")


def test_a_term_never_equals_a_plain_tuple():
    t = _term()
    fields = (t.kind, t.payload_values, t.children, t.origin)
    assert t != fields and fields != t
    assert not t == fields and not fields == t
    assert t == ADD.build(lit(1), lit(2)) and not t != ADD.build(lit(1), lit(2))


def test_a_term_hashes_as_its_fields_without_origin():
    t = _term()
    assert hash(t) == hash((t.kind, t.payload_values, t.children))


@pytest.mark.parametrize("use", [
    lambda t: t < t, lambda t: len(t), lambda t: iter(t), lambda t: t[0], lambda t: t + (),
], ids=["order", "len", "iter", "index", "sum"])
def test_a_term_is_not_a_sequence(use):
    with pytest.raises(TypeError):
        use(_term())


def test_a_term_offers_no_unchecked_rebuild():
    for name in ("_replace", "_make", "_asdict"):
        assert not hasattr(terms.Term, name), name
        assert not hasattr(_term(), name), name


def test_a_term_is_not_a_list_value():
    from srctrans.schema import NonConformingValue, list_items

    with pytest.raises(NonConformingValue, match="expected tuple for list"):
        list_items(_term())


def test_walks_read_a_term_as_a_node():
    from srctrans.schema import GV, from_modular, modularize_schema, parse_schema_text

    t = _term()
    # fold: a term that `down` gives is a result, not the nodes below
    leaves = terms.fold(t, lambda n: n if n.kind is LIT else n.children, lambda n, rs: rs)
    assert leaves == [lit(1), lit(2)]
    assert to_sexpr(t) == "(Add (Lit 1) (Lit 2))"
    # recompose: a term below a node is read by its kind, not as a
    # (case, term) pair
    mod = modularize_schema(parse_schema_text("type E = Add E E | Lit Int"))
    k = mod.signature.kind
    term = k("Schema.Add").build(k("Schema.Lit").build(1), k("Schema.Lit").build(2))
    assert from_modular(mod, term) == GV("Add", (GV("Lit", (1,)), GV("Lit", (2,))))
