"""Schema parsing, modularization, and the round-trip laws."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import random
import re
import sys

import pytest

from helpers import random_schema, random_value
from srctrans.langs.base import get_language
from srctrans import schema
from srctrans.schema import (
    GV,
    GenericValue,
    ForeignKind,
    InvalidSchema,
    NonConformingValue,
    PairV,
    RemovedKindNotPresent,
    dump_modularized,
    from_modular,
    modularize_schema,
    parse_schema_text,
    sum_signatures,
    to_modular,
    validate_schema,
)
from srctrans.terms import Atom, NodeKind, SortMismatch, check_term, mk_term

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


def _chain(depth: int, leaf: int) -> GV:
    """A value `depth` levels deep, through an argument tuple, a list and
    a PairV at each level."""
    v = GV("IntLit", (leaf,))
    for _ in range(depth):
        v = GV("UnaryE", ("-", (GV("NoElse"), PairV(v, 1))))
    return v


def test_generic_value_equality_takes_no_frame_per_level():
    depth = 10_000
    assert depth > sys.getrecursionlimit()
    a, same, other = _chain(depth, 1), _chain(depth, 1), _chain(depth, 2)
    assert a == same and not a != same
    assert a != other and not a == other


def test_generic_value_hash_and_repr_take_no_frame_per_level():
    """hash and repr of a value 10,000 levels deep, and a message that
    shows one: equal values hash alike, and the text is the dataclass
    repr, as at a depth where the recursive one works."""
    depth = 10_000
    assert depth > sys.getrecursionlimit()
    a, same, other = _chain(depth, 1), _chain(depth, 1), _chain(depth, 2)
    assert hash(a) == hash(same) and isinstance(hash(other), int)
    assert repr(_chain(1, 1)) == (
        "GenericValue(ctor='UnaryE', args=('-', (GenericValue(ctor='NoElse', args=()), "
        "PairV(first=GenericValue(ctor='IntLit', args=(1,)), second=1))))"
    )
    head, leaf = "GenericValue(ctor='UnaryE', args=('-', (GenericValue(ctor='NoElse', " \
        "args=()), PairV(first=", "GenericValue(ctor='IntLit', args=(1,))"
    assert repr(a) == head * depth + leaf + ", second=1))))" * depth
    lang = get_language("minic")
    with pytest.raises(NonConformingValue) as bad:
        to_modular(lang.modularized, GV("Program", ([a],)))
    assert str(bad.value) == f"expected tuple for list, got [{a!r}]"


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


# The built-in constructors that the encoder walk sends to its checking
# code rather than a written-out shape (`schema._walk_entry`), per
# language: those of no shape that makes at least 1 % of the values walked
# (two children, four or more, one payload and one child, a list between
# other arguments, a payload after a child), with the frontend's decompose
# cases; and those that also take it with no cases (as in to_modular):
# constructors of two children that decompose gives a case.
CHECKED_CONSTRUCTORS = {
    "minic": (["ForStmt", "FuncDef", "IndexE", "Param", "UnaryE", "WhileStmt"],
              ["AssignE", "Declarator"]),
    "minijs": (["Block", "ForStmt", "FuncDef", "IndexE", "MemberE", "UnaryE", "WhileStmt"],
               ["AssignE", "VarDtor"]),
    "minilua": (["ForStmt", "IndexE", "MemberE", "UnaryE", "WhileStmt"],
                ["AssignStmt", "LocalStmt"]),
}


@pytest.mark.parametrize("lname", sorted(CHECKED_CONSTRUCTORS))
def test_every_common_constructor_takes_a_written_out_shape(lname):
    module = importlib.import_module(f"srctrans.langs.{lname}")
    mod = module.MOD
    sorts = set(mod._sorts.values())
    decompose, without_cases = CHECKED_CONSTRUCTORS[lname]
    for cases, extra in ((module._CASES, []), ({}, without_cases)):
        checked = sorted(
            ctor for ctor, codec in mod._by_ctor.items()
            if schema._walk_entry(codec, cases.get(ctor), sorts)[0] == schema._CHECKED
        )
        assert checked == sorted(decompose + extra), bool(cases)


def test_every_walk_shape_serves_a_builtin_constructor():
    written_out = {getattr(schema, name) for name in
                   re.findall(r"shape == (_\w+)", inspect.getsource(schema.walker))}
    assert written_out and schema._CHECKED not in written_out
    used = set()
    for lname in CHECKED_CONSTRUCTORS:
        module = importlib.import_module(f"srctrans.langs.{lname}")
        sorts = set(module.MOD._sorts.values())
        for cases in (module._CASES, {}):
            used.update(schema._walk_entry(codec, cases.get(ctor), sorts)[0]
                        for ctor, codec in module.MOD._by_ctor.items())
    assert written_out <= used


# One malformed value per written-out fragment case, in a frontend whose
# decompose takes that case: a child of the wrong sort raises the
# SortMismatch its builders raise, with the same message, and an
# identifier, which has no child, rejects a payload of the wrong class.
_I1, _BREAK = GV("IntLit", (1,)), GV("BreakStmt")
FRAGMENT_ERRORS = [
    ("_IDENT", "minic", GV("Ident", (5,)),
     "NonConformingValue: Ident: expected String, got 5"),
    ("_ASSIGN", "minic", GV("AssignE", (_BREAK, _I1)),
     "SortMismatch: child 0: expected sort MiniC.ExprL, got MiniC.StmtL"),
    ("_ASSIGN", "minilua", GV("AssignStmt", (GV("ExprList", ((),)), GV("ExprList", ((),)))),
     "SortMismatch: child 0: expected sort MiniLua.LhsListL, got MiniLua.ExprListL"),
    ("_BLOCK", "minijs", GV("Stmts", ((GV("NumLit", (1,)),),)),
     "SortMismatch: child 0: expected sort MiniJS.StmtL, got MiniJS.ExprL"),
    ("_BLOCK", "minilua", GV("Block", ((GV("BreakStmt"), GV("NilLit")),)),
     "SortMismatch: child 0: expected sort MiniLua.StmtL, got MiniLua.ExprL"),
    ("_ITEM_BLOCK", "minic", GV("Block", ((GV("StmtItem", (_BREAK,)), _BREAK),)),
     "SortMismatch: child 1: expected sort BlockItemL, got MiniC.StmtL"),
    ("_DTOR", "minic", GV("Declarator", (_I1, GV("NoInit"))),
     "SortMismatch: child 0: expected sort MiniC.IdentL, got MiniC.ExprL"),
    ("_DTOR", "minijs", GV("VarDtor", (GV("Ident", ("a",)), GV("NumLit", (1,)))),
     "SortMismatch: child 2: expected sort OptLocalVarInitL, got MiniJS.ExprL"),
    ("_INIT", "minic", GV("SomeInit", (_I1,)),
     "SortMismatch: child 0: expected sort MiniC.InitL, got MiniC.ExprL"),
    ("_INIT", "minilua", GV("SomeExprs", (GV("LhsList", ((),)),)),
     "SortMismatch: child 0: expected sort MiniLua.ExprListL, got MiniLua.LhsListL"),
]


@pytest.mark.parametrize("shape,lname,value,message", FRAGMENT_ERRORS,
                         ids=[f"{row[0]}-{row[1]}" for row in FRAGMENT_ERRORS])
def test_a_written_out_fragment_case_raises_what_its_builders_raise(shape, lname, value,
                                                                    message):
    module = importlib.import_module(f"srctrans.langs.{lname}")
    mod = module.MOD
    entry = schema._walk_entry(mod._by_ctor[value.ctor], module._CASES[value.ctor],
                               set(mod._sorts.values()))
    assert entry[0] == getattr(schema, shape)
    with pytest.raises((NonConformingValue, SortMismatch)) as bad:
        get_language(lname).decompose(value)
    assert f"{type(bad.value).__name__}: {bad.value}" == message


def test_every_written_out_fragment_case_has_an_error_row():
    cases = {"_IDENT", "_ASSIGN", "_BLOCK", "_ITEM_BLOCK", "_DTOR", "_INIT"}
    assert {row[0] for row in FRAGMENT_ERRORS} == cases
    assert cases <= set(re.findall(r"shape == (_\w+)", inspect.getsource(schema.walker)))
