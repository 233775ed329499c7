"""Schema parsing, modularization, and the round-trip laws."""

import copy
import dataclasses
import pickle
import random

import pytest

from helpers import random_schema, random_value
from srctrans.schema import (
    GV,
    GenericValue,
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


# ---------------------------------------------------------------------------
# GenericValue's contract: that of a frozen dataclass


@dataclasses.dataclass(frozen=True)
class _Reference:
    ctor: str
    args: tuple = ()


def test_generic_value_repr_hash_eq_match_a_frozen_dataclass():
    v = GV("BinE", ("+", GV("VarE", (GV("Ident", ("a",)),)), GV("IntLit", (1,))))
    ref = _Reference("BinE", ("+", _Reference("VarE", (_Reference("Ident", ("a",)),)),
                               _Reference("IntLit", (1,))))
    assert GV is GenericValue and isinstance(v, GV)
    assert repr(v) == repr(ref).replace("_Reference(", "GenericValue(")
    assert hash(GV("NoElse")) == hash(_Reference("NoElse"))
    assert hash(v) == hash((v.ctor, v.args))
    assert v == GV("BinE", ("+", GV("VarE", (GV("Ident", ("a",)),)), GV("IntLit", (1,))))
    assert v != GV("BinE", ("-",) + v.args[1:])
    assert GV("NoElse") != _Reference("NoElse")
    assert GV(ctor="SomeInit", args=(1,)) == GV("SomeInit", (1,))
    assert GV(ctor="NoInit").args == () and GV("NoInit") == GV("NoInit", ())


def test_generic_value_is_frozen_and_has_no_dict():
    v = GV("IntLit", (1,))
    for name in ("ctor", "args"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(v, name)
    assert not hasattr(v, "__dict__")
    assert list(GV.__match_args__) == ["ctor", "args"]


def test_generic_value_copies_and_pickles():
    v = GV("CallE", (GV("Ident", ("f",)), (GV("IntLit", (1,)), GV("BoolLit", (True,)))))
    for copied in (copy.deepcopy(v), pickle.loads(pickle.dumps(v)), copy.copy(v)):
        assert copied == v and repr(copied) == repr(v) and type(copied) is GV
    assert copy.deepcopy(v) is not v
