"""Generic traversal combinators over sorted terms."""

import pytest

from srctrans.terms import Atom, NodeKind, iter_subterms, mk_term
from srctrans.traversal import (
    SortViolation,
    get_at,
    replace_at,
    transform_bottom_up,
)

E = Atom("E")
F = Atom("F")
LIT = NodeKind("Lit", ("Int",), (), E)
ADD = NodeKind("Add", (), (E, E), E)
OTHER = NodeKind("Other", (), (), F)


def lit(n):
    return mk_term(LIT, (n,))


def add(a, b):
    return mk_term(ADD, (), (a, b))


def bump(t):
    if t.kind == LIT:
        return mk_term(LIT, (t.payload_values[0] + 1,))
    return None


def test_bottom_up_rewrites_everywhere():
    t = add(lit(1), add(lit(2), lit(3)))
    out = transform_bottom_up(bump, t)
    assert [x.payload_values[0] for x in iter_subterms(out) if x.kind == LIT] == [2, 3, 4]


def test_bottom_up_sees_rewritten_children():
    def sum_adds(t):
        if t.kind == ADD and all(c.kind == LIT for c in t.children):
            return lit(sum(c.payload_values[0] for c in t.children))
        return None

    assert transform_bottom_up(sum_adds, add(lit(1), add(lit(2), lit(3)))) == lit(6)


def test_rewrite_must_preserve_sort():
    def to_other(t):
        return mk_term(OTHER) if t.kind == LIT else None

    with pytest.raises(SortViolation):
        transform_bottom_up(to_other, add(lit(1), lit(2)))


def test_query_collect_preorder():
    # Queries collect by filtering iter_subterms, which visits in pre-order.
    t = add(lit(1), add(lit(2), lit(3)))
    assert [(x.kind.name, x.payload_values) for x in iter_subterms(t)] == [
        ("Add", ()), ("Lit", (1,)), ("Add", ()), ("Lit", (2,)), ("Lit", (3,)),
    ]


def test_unchanged_input_returned_as_is():
    t = add(lit(1), add(lit(2), lit(3)))
    assert transform_bottom_up(lambda _: None, t) is t
    out = transform_bottom_up(bump, t)
    assert out is not t and out.children[1] is not t.children[1]


def test_translator_and_block_edit_return_input_when_unchanged():
    from srctrans.langs.base import (
        block_items,
        get_language,
        with_block_items,
    )

    lang = get_language("minic")
    term = lang.decompose(lang.parse("int main() { int x = 1; x = x + 2; return x; }"))
    body = get_at(term, lang.adapter.body_paths(term)[0])
    items = block_items(body)
    assert with_block_items(body, items) is body
    copies = [mk_term(i.kind, i.payload_values, i.children) for i in items]
    rebuilt = with_block_items(body, copies)
    assert rebuilt is not body and rebuilt == body
    shorter = with_block_items(body, items[:-1])
    assert shorter is not body and block_items(shorter) == items[:-1]


def test_paths():
    t = add(lit(1), add(lit(2), lit(3)))
    assert get_at(t, (1, 0)) == lit(2)
    out = replace_at(t, (1, 0), lit(9))
    assert get_at(out, (1, 0)) == lit(9)
    assert get_at(out, (0,)) == lit(1)
