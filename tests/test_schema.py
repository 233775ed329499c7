"""Schema parsing, modularization, and the round-trip laws."""

import random

import pytest

from helpers import random_schema, random_value
from srctrans.schema import (
    GV,
    ForeignKind,
    InvalidSchema,
    NonConformingValue,
    RemovedKindNotPresent,
    dump_modularized,
    from_modular,
    modularize_schema,
    parse_schema_text,
    sum_signatures,
    to_modular,
    validate_schema,
)
from srctrans.terms import Atom, NodeKind, check_term, mk_term

ARITH_TEXT = """\
type Arith = Add Atom Atom
type Atom = Var String | Const Lit
type Lit = Lit Int
"""

ARITH_DUMP = """\
language Arith
root Arith.ArithL
sort Arith.ArithL
sort Arith.AtomL
sort Arith.LitL
kind Arith.Add : Arith.AtomL Arith.AtomL -> Arith.ArithL
kind Arith.Var : String -> Arith.AtomL
kind Arith.Const : Arith.LitL -> Arith.AtomL
kind Arith.Lit : Int -> Arith.LitL
"""


def arith():
    return modularize_schema(parse_schema_text(ARITH_TEXT, "Arith"))


def test_dump_golden():
    assert dump_modularized(arith()) == ARITH_DUMP


def test_parse_rejects_unknown_type():
    report = validate_schema(parse_schema_text("type A = MkA Bogus\n", "A"))
    assert not report.ok


def test_parse_rejects_garbage():
    with pytest.raises(InvalidSchema):
        parse_schema_text("type = |\n", "Bad")


def test_comments_and_blank_lines():
    text = "# heading\n\n" + ARITH_TEXT
    assert dump_modularized(
        modularize_schema(parse_schema_text(text, "Arith"))
    ) == ARITH_DUMP


def test_to_modular_conformance():
    lang = arith()
    v = GV("Add", (GV("Var", ("x",)), GV("Const", (GV("Lit", (3,)),))))
    t = to_modular(lang, v)
    check_term(t, lang.signature)
    assert from_modular(lang, t) == v


def test_to_modular_rejects_bad_value():
    lang = arith()
    with pytest.raises(NonConformingValue):
        to_modular(lang, GV("Bogus", ()))
    # ill-sorted children surface as term construction failures
    from srctrans.terms import SortMismatch

    with pytest.raises(SortMismatch):
        to_modular(lang, GV("Add", (GV("Lit", (1,)), GV("Lit", (2,)))))


def test_to_modular_rejects_unknown_ctor_arity_and_prim():
    lang = arith()
    with pytest.raises(NonConformingValue, match="unknown constructor"):
        to_modular(lang, GV("Nope", ()))
    with pytest.raises(NonConformingValue, match="expected 2 arguments"):
        to_modular(lang, GV("Add", (GV("Var", ("x",)),)))
    with pytest.raises(NonConformingValue, match="expected Int"):
        to_modular(lang, GV("Lit", (True,)))
    with pytest.raises(NonConformingValue, match="expected Int"):
        to_modular(lang, GV("Const", (GV("Lit", (False,)),)))


def test_from_modular_rejects_foreign_kinds():
    lang = arith()
    lit = to_modular(lang, GV("Lit", (1,)))
    # The right name, but child sorts that differ from Arith.Add's.
    fake_add = NodeKind("Arith.Add", (), (lit.sort, lit.sort), Atom("Arith.ArithL"))
    with pytest.raises(ForeignKind):
        from_modular(lang, mk_term(fake_add, (), (lit, lit)))
    other = modularize_schema(parse_schema_text(ARITH_TEXT, "Other"))
    with pytest.raises(ForeignKind):
        from_modular(lang, to_modular(other, GV("Lit", (1,))))
    with pytest.raises(ForeignKind):
        from_modular(other, lit)


def test_lookups_by_name():
    lang = arith()
    assert lang.sort_for("Atom") == Atom("Arith.AtomL")
    with pytest.raises(KeyError):
        lang.sort_for("Nope")
    tname, ctor = lang.schema.constructor("Const")
    assert tname == "Atom" and ctor.name == "Const"
    assert lang.schema.constructor("Nope") is None


def test_roundtrip_random_schemas():
    rng = random.Random(7)
    for i in range(8):
        schema = random_schema(rng, i)
        lang = modularize_schema(schema)
        for _ in range(40):
            v = random_value(schema, schema.root_type, rng)
            t = to_modular(lang, v)
            assert from_modular(lang, t) == v
            assert to_modular(lang, from_modular(lang, t)) == t


def test_sum_signatures_minus_plus():
    lang = arith()
    const = lang.signature.kind("Arith.Const")
    smaller = sum_signatures("NoConst", [lang.signature], minus=["Arith.Const"])
    assert not smaller.has_kind("Arith.Const")
    back = sum_signatures("Again", [smaller], plus=[const])
    assert back.has_kind("Arith.Const")


def test_sum_signatures_minus_missing():
    lang = arith()
    smaller = sum_signatures("NoConst", [lang.signature], minus=["Arith.Const"])
    with pytest.raises(RemovedKindNotPresent):
        sum_signatures("Twice", [smaller], minus=["Arith.Const"])
