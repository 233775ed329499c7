"""decompose rejects exactly what to_modular rejects.

decompose is one walk over the parsed value with each frontend's trans
cases, so a case reads its constructor's arguments itself.  For every
constructor in a small program, including those with a case (`Ident`,
the blocks, the declarations and their initializers, the assignments),
each malformed variant below must make decompose raise what to_modular
raises: NonConformingValue with the same message, or SortMismatch for a
value of the wrong type.
"""

import hashlib

import pytest

from helpers import to_sexpr
from srctrans.langs.base import get_language
from srctrans.schema import GV, GenericValue, ListT, Named, NonConformingValue, Prim, to_modular
from srctrans.terms import SortMismatch

TEXT = {
    "minic": "int main() {\n  int a = 1, b;\n  int[] c = {1, 2};\n  a = a + 1;\n"
             "  if (a < 2) {\n    b = 3;\n  }\n  return a;\n}\n",
    "minijs": "function main() {\n  var a = 1, b;\n  a = a + 1;\n"
              "  if (a < 2) {\n    b = [3, true];\n  }\n  return a;\n}\n",
    "minilua": "local a, b = 1\nlocal c\na = a + 1\nif a < 2 then\n  b = 3\nend\nprint(a)\n",
}

# The constructors that have a trans case, each of which must be tried.
CASED = {
    "minic": {"Ident", "Block", "StmtItem", "DeclItem", "Decl", "Declarator",
              "SomeInit", "NoInit", "AssignE"},
    "minijs": {"Ident", "Stmts", "VarStmt", "VarDtor", "SomeInit", "NoInit", "AssignE"},
    "minilua": {"Ident", "Block", "LocalStmt", "AssignStmt", "SomeExprs", "NoExprs"},
}

WRONG_PAYLOAD = {"String": 5, "Int": True, "Bool": 1}


def _occurrences(value, path=()):
    """(path, value) of every constructor value, pre-order; a path holds
    argument indices and list positions."""
    if isinstance(value, GenericValue):
        yield path, value
        for i, arg in enumerate(value.args):
            yield from _occurrences(arg, path + (i,))
    elif isinstance(value, tuple):
        for i, elem in enumerate(value):
            yield from _occurrences(elem, path + (i,))


def _replace(value, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(value, GenericValue):
        args = list(value.args)
        args[i] = _replace(args[i], rest, new)
        return GV(value.ctor, tuple(args))
    elems = list(value)
    elems[i] = _replace(elems[i], rest, new)
    return tuple(elems)


def _variants(schema, value, other_types):
    """(label, malformed value) pairs for one constructor value.
    `other_types(t)` are well-formed values of the types other than t."""
    _, decl = schema.constructor(value.ctor)
    args = value.args
    yield "too many arguments", GV(value.ctor, args + (0,))
    if args:
        yield "too few arguments", GV(value.ctor, args[:-1])
    for i, ty in enumerate(decl.args):
        def at(new, i=i):
            return GV(value.ctor, args[:i] + (new,) + args[i + 1:])

        if isinstance(ty, Prim):
            yield f"payload {i} of the wrong class", at(WRONG_PAYLOAD[ty.name])
        elif isinstance(ty, Named):
            yield f"child {i} not a value", at(5)
            yield f"child {i} of an unknown constructor", at(GV("NoSuchCtor"))
            for other in other_types(ty.name):
                yield f"child {i} a {other.ctor}", at(other)
        elif isinstance(ty, ListT):
            yield f"list {i} not a tuple", at(list(args[i]))
            if args[i]:
                elems = args[i]
                yield f"list {i} element not a value", at((5,) + elems[1:])
                for other in other_types(ty.elem.name):
                    yield f"list {i} element a {other.ctor}", at((other,) + elems[1:])


def _raised(fn, value):
    try:
        fn(value)
    except (NonConformingValue, SortMismatch) as e:
        return type(e)
    return None


@pytest.mark.parametrize("lname", sorted(TEXT))
def test_decompose_rejects_what_to_modular_rejects(lname):
    lang = get_language(lname)
    schema = lang.schema
    ast = lang.parse(TEXT[lname])
    occurrences = list(_occurrences(ast))
    first = {}
    for path, v in occurrences:
        first.setdefault(v.ctor, (path, v))
    assert CASED[lname] <= set(first)

    def other_types(tname):
        """The first value of each type other than tname."""
        firsts = {}
        for _, v in occurrences:
            firsts.setdefault(schema.constructor(v.ctor)[0], v)
        return [v for t, v in firsts.items() if t != tname]

    checked = 0
    for ctor, (path, v) in sorted(first.items()):
        for label, bad in _variants(schema, v, other_types):
            whole = _replace(ast, path, bad)
            want = _raised(lambda x: to_modular(lang.modularized, x), whole)
            assert want is not None, (ctor, label)
            if want is SortMismatch:
                with pytest.raises(SortMismatch):
                    lang.decompose(whole)
            else:
                with pytest.raises(NonConformingValue) as expected:
                    to_modular(lang.modularized, whole)
                with pytest.raises(NonConformingValue) as got:
                    lang.decompose(whole)
                assert str(got.value) == str(expected.value), (ctor, label)
            checked += 1
    assert checked > 200


@pytest.mark.parametrize("lname", sorted(TEXT))
def test_decompose_rejects_a_root_that_is_not_a_value(lname):
    lang = get_language(lname)
    for bad in (5, (), GV("NoSuchCtor")):
        with pytest.raises(NonConformingValue) as expected:
            to_modular(lang.modularized, bad)
        with pytest.raises(NonConformingValue) as got:
            lang.decompose(bad)
        assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# The walk's outcomes, pinned exactly
#
# For every constructor of each language, on its first occurrence in the
# program below, each variant gives one row per walk: the exception class
# and message, or the s-expression of the tree built.  The variants are
# `_variants` and those that a walk tuned for the common case must still
# treat as the checking code does: arguments in a list, an int subclass,
# a bool, or a str subclass where a payload goes, a GenericValue subclass
# as the value, and more or fewer arguments.

PIN_TEXT = {
    "minic": "int f(int n, bool b) {\n  if (b) {\n    return n;\n  }\n  return 0;\n}\n"
             "int main() {\n  int a = 1, c;\n  int[] d = {1, 2};\n  bool e = true;\n"
             "  a = a + 1;\n  if (a < 2) {\n    c = -a;\n  } else {\n    c = d[0];\n  }\n"
             "  while (!e) {\n    break;\n  }\n"
             "  for (a = 0; a < 3; a = a + 1) {\n    continue;\n  }\n"
             "  for (;;) {\n    break;\n  }\n  {\n    f(a, e);\n  }\n  return a;\n}\n",
    "minijs": "function f(n) {\n  \"use strict\";\n  if (n) {\n    return;\n  }\n}\n"
              "function main() {\n  var a = 1, b;\n  var u = undefined;\n  a = a + 1;\n"
              "  if (a < 2) {\n    b = [3, true];\n  } else {\n    b = -a;\n  }\n"
              "  while (!u) {\n    break;\n  }\n"
              "  for (a = 0; a < 3; a = a + 1) {\n    continue;\n  }\n"
              "  for (;;) {\n    break;\n  }\n  {\n    f(a);\n  }\n"
              "  u = b.length + b[0];\n  return a;\n}\n",
    "minilua": "local a, b = 1\nlocal c = true\nlocal d\na = a + 1\n"
               "if a < 2 then\n  b = 3\nelseif a > 5 then\n  b = nil\nelse\n  b = -a\nend\n"
               "while not b do\n  break\nend\nif c then\n  c = false\nend\n"
               "for i = 1, 3, 1 do\n  print(i)\nend\nfor j = 1, 2 do\n  print(j)\nend\n"
               "function g(x, y)\n  return x\nend\n"
               "do\n  print(a.x, c[1], g(a, b))\nend\nreturn\n",
}

# sha256 of each language's rows, and how many rows there are
PINNED = {
    "minic": (1720, "f59296ba84c7cbd7a54aa56a820d3d9f43673b4ce3e24628f5597138feca3e07"),
    "minijs": (1360, "3ca57963a970d5e74d772398f954b6779a080c477ee826c5846e48161478070f"),
    "minilua": (1466, "e2f19750a8983ee655f05387d6485cf744a19bfff663c02a31b1caeb1526047a"),
}


class _Int(int):
    """An int subclass: an Int payload accepts it, as it is."""


class _Str(str):
    """A str subclass: a String payload accepts it, as it is."""


class _Value(GenericValue):
    """A GenericValue subclass: the walks accept it as a value."""

    __slots__ = ()


def _pin_variants(schema, value, other_types):
    yield from _variants(schema, value, other_types)
    args = value.args
    yield "arguments in a list", GV(value.ctor, list(args))
    yield "a GenericValue subclass", _Value(value.ctor, args)
    yield "a value more", GV(value.ctor, args + (value,))
    if len(args) > 1:
        yield "no arguments", GV(value.ctor, ())
    _, decl = schema.constructor(value.ctor)
    for i, ty in enumerate(decl.args):
        if isinstance(ty, Prim):
            for label, new in (("a bool", True), ("an int subclass", _Int(7)),
                               ("a str subclass", _Str("s"))):
                yield f"payload {i} {label}", GV(value.ctor, args[:i] + (new,) + args[i + 1:])


def _row(fn, value) -> str:
    try:
        term = fn(value)
    except (NonConformingValue, SortMismatch) as e:
        return f"{type(e).__name__}: {e}"
    return "built " + hashlib.sha256(to_sexpr(term).encode()).hexdigest()[:16]


def _pin_rows(lname):
    lang = get_language(lname)
    schema = lang.schema
    ast = lang.parse(PIN_TEXT[lname])
    occurrences = list(_occurrences(ast))
    first = {}
    for path, v in occurrences:
        first.setdefault(v.ctor, (path, v))
    assert set(first) == {c.name for _, decls in schema.type_defs for c in decls}

    def other_types(tname):
        firsts = {}
        for _, v in occurrences:
            firsts.setdefault(schema.constructor(v.ctor)[0], v)
        return [v for t, v in firsts.items() if t != tname]

    for ctor, (path, v) in sorted(first.items()):
        for label, bad in _pin_variants(schema, v, other_types):
            whole = _replace(ast, path, bad)
            yield f"{ctor} | {label} | to_modular | " + _row(
                lambda x: to_modular(lang.modularized, x), whole)
            yield f"{ctor} | {label} | decompose | " + _row(lang.decompose, whole)


@pytest.mark.parametrize("lname", sorted(PIN_TEXT))
def test_walk_outcomes_are_pinned(lname):
    rows = list(_pin_rows(lname))
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert (len(rows), digest) == PINNED[lname]
