"""decompose rejects exactly what to_modular rejects.

decompose is one walk over the parsed value with each frontend's trans
cases, so a case reads its constructor's arguments itself.  For every
constructor in a small program, including those with a case (`Ident`,
the blocks, the declarations and their initializers, the assignments),
each malformed variant below must make decompose raise what to_modular
raises: NonConformingValue with the same message, or SortMismatch for a
value of the wrong type.
"""

import pytest

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
