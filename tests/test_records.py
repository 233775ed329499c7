"""The value classes keep the contract of the dataclasses they replaced.

Each class is compared with a reference dataclass declared here under the
same name, with the fields, defaults and options of the original
declaration: the same `__match_args__`, `repr`, `==`, `hash` (or the
same unhashability), defaults, `FrozenInstanceError` on `setattr` and
`delattr`, and the same results from `copy`, `deepcopy` and `pickle`.
The interned sort and kind classes compare by identity, and a copy or an
unpickled one is the interned object itself.  `Token` and `Case` are
named tuples.
"""

import copy
import dataclasses
import pickle
from collections import namedtuple
from dataclasses import FrozenInstanceError, field, make_dataclass

import pytest

from srctrans.difftest import DiffReport, Verdict
from srctrans.flow import BasicBlock, BeforeStmt
from srctrans.injections import InjectionDecl, InjectionTable
from srctrans.langs.base import LanguageDef, get_language
from srctrans.langs.common import Token
from srctrans.passes.hoist import PassRequirements
from srctrans.runtime import RunResult
from srctrans.schema import (
    GV,
    Case,
    ConstructorDecl,
    GenericValue,
    ListT,
    ModularizedLanguage,
    Named,
    PairT,
    PairV,
    Prim,
    Schema,
    ValidationReport,
    modularize_schema,
)
from srctrans.terms import Atom, ListOf, NodeKind, PairOf, Signature, Term, mk_term

E = Atom("E")
F = Atom("F")
LIT = NodeKind("Lit", ("Int",), (), E)
ADD = NodeKind("Add", (), (E, E), E)
WRAP = NodeKind("Wrap", (), (E,), F)

_HIDDEN = {"compare": False, "repr": False}


def _cache(**options):
    """A dict field outside repr and ==, as the caches were declared."""
    return field(default_factory=dict, **_HIDDEN, **options)


SCHEMA = Schema("S", (("E", (ConstructorDecl("Lit", (Prim("Int"),)),
                             ConstructorDecl("Add", (Named("E"), Named("E"))))),), "E")
MODULAR = modularize_schema(SCHEMA)
MINIJS = get_language("minijs")

_LANG_FIELDS = ("name", "file_ext", "schema", "modularized", "ips", "injections", "ops",
                "adapter", "parse", "pretty", "decompose", "recompose", "run",
                "item_walk", "tac")

# (class, reference fields, reference options, arguments, arguments that
# differ in one compared field, how many arguments are required, which of
# deepcopy and pickle apply)
RECORDS = [
    (Term, ["kind", "payload_values", "children",
            ("origin", object, field(default=None, **_HIDDEN))], {"slots": True},
     (ADD, (), (mk_term(LIT, (1,)), mk_term(LIT, (2,))), GV("X")),
     (ADD, (), (mk_term(LIT, (1,)), mk_term(LIT, (3,))), GV("X")), 3, "dp"),
    (Signature, ["name", "kinds", ("_by_name", dict, _cache()),
                 ("_containing", dict, _cache())], {},
     ("S", (LIT, ADD), {}, {}), ("S", (LIT,), {}, {}), 2, "dp"),
    (Prim, ["name"], {}, ("Int",), ("Bool",), 1, "dp"),
    (Named, ["name"], {}, ("E",), ("F",), 1, "dp"),
    (ListT, ["elem"], {}, (Prim("Int"),), (Named("E"),), 1, "dp"),
    (PairT, ["first", "second"], {}, (Named("A"), Prim("Bool")),
     (Named("A"), Prim("Int")), 2, "dp"),
    (ConstructorDecl, ["name", "args"], {}, ("Add", (Named("E"), Named("E"))),
     ("Add", (Named("E"),)), 2, "dp"),
    (Schema, ["name", "type_defs", "root_type", ("_ctors", dict, _cache(init=False))],
     {}, (SCHEMA.name, SCHEMA.type_defs, "E"), (SCHEMA.name, SCHEMA.type_defs, "F"), 3,
     "dp"),
    (GenericValue, ["ctor", ("args", tuple, field(default=()))], {"slots": True},
     ("CallE", (GV("Ident", ("f",)), (GV("IntLit", (1,)),))), ("CallE", ()), 1, "dp"),
    (PairV, ["first", "second"], {}, (1, GV("X")), (2, GV("X")), 2, "dp"),
    (ValidationReport, [("errors", list, field(default_factory=list))], {"frozen": False},
     ([("Rule", "message")],), ([],), 0, "dp"),
    (ModularizedLanguage, ["schema", "signature", "sort_of", "fragment_of",
                           ("_sorts", dict, _cache(init=False)),
                           ("_by_ctor", dict, _cache(init=False)),
                           ("_by_kind", dict, _cache(init=False))], {},
     (MODULAR.schema, MODULAR.signature, MODULAR.sort_of, MODULAR.fragment_of),
     (MODULAR.schema, MODULAR.signature, MODULAR.sort_of, ()), 4, "d"),
    (InjectionDecl, ["from_sort", "to_sort", "path", ("derived", bool, field(default=False))],
     {}, (E, F, (WRAP,), True), (E, F, (WRAP,), False), 3, "dp"),
    (InjectionTable, [("signature", object, field(default=None)),
                      ("_edges", dict, field(default_factory=dict))], {"frozen": False},
     (None, {(E, F): InjectionDecl(E, F, (WRAP,))}), (None, {}), 0, "dp"),
    (RunResult, ["events", ("coverage", dict, field(default_factory=dict))], {},
     ((("print", 1), ("return", 0)), {1: 2}), ((("print", 1),), {1: 2}), 1, "dp"),
    (LanguageDef, [*_LANG_FIELDS[:-1], ("tac", object, field(default=None))], {},
     tuple(getattr(MINIJS, n) for n in _LANG_FIELDS),
     tuple(getattr(MINIJS, n) for n in _LANG_FIELDS[:-1]) + (None,), 14, ""),
    (Verdict, ["index", "kind", ("detail", str, field(default=""))], {},
     (3, "RunError", "after: Trap"), (3, "RunError", "before: Trap"), 2, "dp"),
    (DiffReport, ["lang", "pass_name", "verdicts"], {},
     ("minic", "hoist", (Verdict(0, "Equal"),)), ("minic", "tac", (Verdict(0, "Equal"),)),
     3, "dp"),
    (BeforeStmt, ["body", "block", "index"], {}, (1, ((0, "then"),), 2),
     (1, ((0, "then"),), 3), 3, "dp"),
    (BasicBlock, ["id", "body", "stmts", "leader"], {},
     (0, 1, ((1, 0), (1, 1)), BeforeStmt(1, (), 0)),
     (0, 1, ((1, 0),), BeforeStmt(1, (), 0)), 4, "dp"),
    (PassRequirements, [("kinds", tuple, field(default=())),
                        ("injections", tuple, field(default=())),
                        ("ops", tuple, field(default=()))], {},
     ((ADD,), ((E, F),), ("var_init_to_rhs",)), ((ADD,), (), ("var_init_to_rhs",)), 0, "dp"),
]


def _reference(cls, fields, options):
    return make_dataclass(cls.__name__, fields, **{"frozen": True, **options})


def _record_id(case):
    return case[0].__name__


@pytest.fixture(params=RECORDS, ids=_record_id)
def record(request):
    cls, fields, options, args, other, required, copies = request.param
    return cls, _reference(cls, fields, options), args, other, required, copies


def test_fields_repr_and_equality_match_the_reference(record):
    cls, ref, args, other, _, _ = record
    obj, want = cls(*args), ref(*args)
    assert cls.__match_args__ == ref.__match_args__
    assert cls.__qualname__ == ref.__qualname__
    assert repr(obj) == repr(want)
    assert [getattr(obj, n) for n in cls.__match_args__] == list(args)
    assert obj == cls(*args) and not obj != cls(*args)
    assert obj != cls(*other) and ref(*other) != want
    assert obj != want and want != obj


def test_keywords_and_defaults_match_the_reference(record):
    cls, ref, args, _, required, _ = record
    names = cls.__match_args__
    assert cls(**dict(zip(names, args))) == cls(*args)
    obj, want = cls(*args[:required]), ref(*args[:required])
    for f in dataclasses.fields(want):
        if f.compare:
            assert getattr(obj, f.name) == getattr(want, f.name), f.name
        else:  # a table that the constructor fills
            assert type(getattr(obj, f.name)) is type(getattr(want, f.name)), f.name
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args[:required], nonsense=1)


def test_hash_matches_the_reference(record):
    cls, ref, args, _, _, _ = record
    obj, want = cls(*args), ref(*args)
    try:
        expected = hash(want)
    except TypeError:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == expected == hash(cls(*args))


def test_frozen_or_mutable_as_the_reference(record):
    cls, ref, args, _, _, _ = record
    obj = cls(*args)
    if not ref.__dataclass_params__.frozen:
        setattr(obj, cls.__match_args__[0], args[0])
        assert obj == cls(*args)
        return
    for name in cls.__match_args__:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    # a slotted frozen dataclass fails on an undeclared name with a
    # TypeError from its own __setattr__
    undeclared = (FrozenInstanceError, TypeError) if "__slots__" in vars(ref) else \
        FrozenInstanceError
    with pytest.raises(undeclared):
        setattr(obj, "undeclared", None)
    with pytest.raises(undeclared):
        delattr(obj, "undeclared")
    assert obj == cls(*args)


def test_copies_and_pickles_as_the_reference(record):
    cls, _, args, _, _, copies = record
    obj = cls(*args)
    made = [copy.copy(obj)]
    if "d" in copies:
        made.append(copy.deepcopy(obj))
    if "p" in copies:
        made.append(pickle.loads(pickle.dumps(obj)))
    for other in made:
        assert type(other) is cls and other == obj and repr(other) == repr(obj)
        assert other is not obj
    shallow = made[0]
    for name in cls.__match_args__:
        assert getattr(shallow, name) is getattr(obj, name), name


def test_term_origin_is_outside_repr_and_equality():
    one = Term(LIT, (1,), (), GV("IntLit", (1,)))
    assert one == Term(LIT, (1,), ()) and hash(one) == hash(Term(LIT, (1,), ()))
    assert "origin" not in repr(one) and one.origin == GV("IntLit", (1,))
    assert pickle.loads(pickle.dumps(one)).origin == one.origin
    assert copy.copy(one).origin is one.origin


def test_derived_tables_are_rebuilt_by_a_copy():
    for obj in (SCHEMA, MODULAR, Signature("S", (LIT, ADD))):
        for other in (copy.copy(obj), copy.deepcopy(obj)):
            assert other == obj
    assert copy.deepcopy(SCHEMA).constructor("Add")[1] == ConstructorDecl(
        "Add", (Named("E"), Named("E")))
    assert copy.deepcopy(Signature("S", (LIT, ADD))).kind("Add") is ADD
    assert pickle.loads(pickle.dumps(SCHEMA)).constructor("Lit")[0] == "E"
    assert copy.deepcopy(MODULAR).sort_for("E") is MODULAR.sort_for("E")


# ---------------------------------------------------------------------------
# The interned sort and kind classes


@pytest.mark.parametrize("obj,fields", [
    (E, ["name"]),
    (ListOf(E), ["elem"]),
    (PairOf(E, ListOf(F)), ["first", "second"]),
    (ADD, ["name", "payloads", "child_sorts", "produced"]),
], ids=["Atom", "ListOf", "PairOf", "NodeKind"])
def test_interned_classes_keep_their_contract(obj, fields):
    cls = type(obj)
    ref = make_dataclass(cls.__name__, fields, frozen=True, eq=False)
    args = [getattr(obj, n) for n in fields]
    want = ref(*args)
    assert cls.__match_args__ == ref.__match_args__ == tuple(fields)
    if cls is NodeKind:
        assert repr(obj) == "NodeKind(Add)"
    else:
        assert repr(obj) == repr(want)
    assert cls(*args) is obj and obj == cls(*args) and obj != want
    assert hash(obj) == object.__hash__(obj)
    assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    for name in (*fields, "undeclared"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert other is obj
    assert obj.__reduce__() == (cls, tuple(args))


def test_kind_builder_is_set_once():
    build = ADD.build
    assert NodeKind("Add", (), (E, E), E).build is build and build.kind is ADD


# ---------------------------------------------------------------------------
# Named tuples


@pytest.mark.parametrize("cls,fields,values", [
    (Token, "kind value line col", ("num", "12", 3, 4)),
    (Case, "down up", (len, None)),
])
def test_named_tuples_match_a_namedtuple(cls, fields, values):
    ref = namedtuple(cls.__name__, fields)
    obj, want = cls(*values), ref(*values)
    assert cls._fields == ref._fields and isinstance(obj, tuple)
    assert repr(obj) == repr(want) and obj == want and hash(obj) == hash(want)
    assert cls(**dict(zip(cls._fields, values))) == obj
    assert obj._replace(**{cls._fields[0]: values[0]}) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert not dataclasses.is_dataclass(obj)
