"""Provenance: terms remember their source, and recompose stops there.

An origin is always the value a node stands for.  `to_modular` records
one on each constructor node it builds, and `decompose` on each node of
a kind of the modular signature; the IPS-only nodes above them record
none.  The recorded origin must be exactly what a full recompose of the
node gives, so the shortcut never changes a result; these tests compare
against `without_origin` copies, which recompose the long way.
"""

import pytest

from helpers import COUNTF, without_origin
from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language
from srctrans.passes.hoist import hoist
from srctrans.schema import GenericValue, to_modular
from srctrans.terms import iter_subterms, mk_term
from srctrans.traversal import get_at, replace_at

ALL = ("minic", "minijs", "minilua")

CONFIGS = (
    [GenConfig(seed=s) for s in range(6)]
    + [GenConfig(seed=s, shadowing=True) for s in range(6)]
    + [GenConfig(seed=s, max_depth=7, max_stmts=7) for s in range(3)]
)

# One function hoist leaves alone, and one whose declaration it moves.
HOIST_TEXT = {
    "minic": "int f(int a) {\n  return a;\n}\n"
             "int main() {\n  print(1);\n  int x = 2;\n  return f(x);\n}\n",
    "minijs": "function f(a) {\n  return a;\n}\n"
              "function main() {\n  print(1);\n  var x = 2;\n  return f(x);\n}\n",
    "minilua": "function f(a)\n  return a\nend\n"
               "function g(b)\n  print(b)\n  local x = 2\n  return x\nend\n"
               "print(g(f(1)))\n",
}


def _values(v):
    """Every constructor value in v, pre-order."""
    stack = [v]
    while stack:
        v = stack.pop()
        if isinstance(v, GenericValue):
            yield v
            stack.extend(reversed(v.args))
        elif isinstance(v, tuple):
            stack.extend(reversed(v))


def _functions(lname, ast):
    ctor = "FuncStmt" if lname == "minilua" else "FuncDef"
    return [v for v in _values(ast) if v.ctor == ctor]


def _check_origins(lang, term):
    checked = 0
    for node in iter_subterms(term):
        origin = node.origin
        if origin is None:
            continue
        assert lang.recompose(without_origin(node)) == origin
        checked += 1
    return checked


def _check_origin_kinds(lang, term):
    """Every node of a kind of the modular signature has an origin, and
    no other node has one: not an injection, a generic fragment or a
    list."""
    sig = lang.modularized.signature
    for node in iter_subterms(term):
        name = node.kind.name
        surface = sig.has_kind(name) and sig.kind(name) == node.kind
        assert (node.origin is not None) == surface, name


@pytest.mark.parametrize("lname", ALL)
def test_origin_is_what_a_full_recompose_gives(lname):
    lang = get_language(lname)
    for cfg in CONFIGS:
        ast = lang.parse(gen_program(lname, cfg))
        surface = to_modular(lang.modularized, ast)
        assert surface.origin is ast
        assert _check_origins(lang, surface) > 0
        term = lang.trans_ips(surface)
        assert _check_origins(lang, term) > 0
        _check_origin_kinds(lang, term)
        _check_origin_kinds(lang, lang.decompose(ast))


@pytest.mark.parametrize("lname", ALL)
def test_origin_takes_no_part_in_equality(lname):
    lang = get_language(lname)
    term = lang.decompose(lang.parse(COUNTF[lname]))
    copy = without_origin(term)
    assert term.origin is not None and copy.origin is None
    assert copy == term and hash(copy) == hash(term) and repr(copy) == repr(term)


@pytest.mark.parametrize("lname", ALL)
def test_ident_round_trip_returns_the_input(lname):
    lang = get_language(lname)
    for cfg in CONFIGS[:3]:
        ast = lang.parse(gen_program(lname, cfg))
        assert lang.recompose(lang.decompose(ast)) is ast


@pytest.mark.parametrize("lname", ALL)
def test_hoist_keeps_the_unchanged_function(lname):
    lang = get_language(lname)
    ast = lang.parse(HOIST_TEXT[lname])
    term = hoist(lang.decompose(ast), lang)
    out = lang.recompose(term)
    assert out == lang.recompose(without_origin(term))
    before, after = _functions(lname, ast), _functions(lname, out)
    assert after[0] is before[0]
    assert after[1] != before[1]


@pytest.mark.parametrize("lname", ALL)
def test_deep_edit_shows_in_recompose(lname):
    # Replace the deepest integer literal: every node above it is new,
    # so no stale origin may answer for it.
    lang = get_language(lname)
    ast = lang.parse(COUNTF[lname])
    term = lang.decompose(ast)
    deepest = ()
    stack = [()]
    while stack:
        path = stack.pop()
        node = get_at(term, path)
        if node.kind.payloads == ("Int",) and len(path) > len(deepest):
            deepest = path
        stack.extend(path + (i,) for i in range(len(node.children)))
    old = get_at(term, deepest)
    edited = replace_at(term, deepest, mk_term(old.kind, (4242,), old.children))
    out = lang.recompose(edited)
    assert out == lang.recompose(without_origin(edited))
    assert out != ast and "4242" in lang.pretty(out)
    assert "4242" not in lang.pretty(lang.recompose(term))
