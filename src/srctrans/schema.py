"""Mechanical modularization of mutually recursive ADT definitions.

A Schema is a family of named types, each a list of constructors whose
arguments are primitives, other type names, or List/Pair containers over
such.  Modularization produces one fresh sort per type name and one node
kind per constructor, together with bidirectional translations between
neutral constructor-applied values (GenericValue) and sorted terms.

Schemas can also be read from a small line-oriented text format:

    # comment
    type Arith = Add Atom Atom
    type Atom = Var String | Const Lit
    type Lit = Lit Int

Argument types are Int, Bool, String, a type name, [t] for lists, and
(t, t) for pairs.  The first defined type is the root.

Encoding is one recursive walk over a value (`walker`), which builds
each node through its kind's builder; decoding is one `terms.fold` over
a term (`reader`), which takes no Python frame per level.  `to_modular`
and `from_modular` are the walks alone.  A frontend adds cases for what
its incremental parametric syntax replaces, so its decompose and
recompose go straight between value and IPS term.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from .records import Frozen, Record
from .terms import (
    Atom,
    ListOf,
    NodeKind,
    PRIM_TYPES,
    PairOf,
    Signature,
    Sort,
    Term,
    build_pair,
    fold,
    gc_paused,
    list_kind,
    prim_matches,
    sort_name,
)


class SchemaError(Exception):
    pass


class InvalidSchema(SchemaError):
    pass


class NonConformingValue(SchemaError):
    pass


class ForeignKind(SchemaError):
    pass


class DuplicateKind(SchemaError):
    pass


class RemovedKindNotPresent(SchemaError):
    pass


class Prim(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):  # Int | Bool | String
        Frozen.__init__(self, name)


class Named(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        Frozen.__init__(self, name)


class ListT(Frozen):
    __slots__ = ("elem",)

    def __init__(self, elem: SchemaType):
        Frozen.__init__(self, elem)


class PairT(Frozen):
    __slots__ = ("first", "second")

    def __init__(self, first: SchemaType, second: SchemaType):
        Frozen.__init__(self, first, second)


SchemaType = Prim | Named | ListT | PairT


class ConstructorDecl(Frozen):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[SchemaType, ...]):
        Frozen.__init__(self, name, args)


class Schema(Frozen):
    """`_ctors`, each constructor's type name and declaration by its name,
    is built here, outside repr, `==` and hash."""

    __slots__ = ("name", "type_defs", "root_type", "_ctors")
    __match_args__ = ("name", "type_defs", "root_type")

    def __init__(self, name: str, type_defs: tuple[tuple[str, tuple[ConstructorDecl, ...]], ...],
                 root_type: str):
        Frozen.__init__(self, name, type_defs, root_type)
        ctors: dict = {}
        for tname, decls in type_defs:
            for c in decls:
                ctors.setdefault(c.name, (tname, c))
        object.__setattr__(self, "_ctors", ctors)

    def types(self) -> dict[str, tuple[ConstructorDecl, ...]]:
        return dict(self.type_defs)

    def constructor(self, name: str) -> tuple[str, ConstructorDecl] | None:
        return self._ctors.get(name)


class GenericValue(Frozen):
    """A neutral constructor-applied value conforming to some schema.

    Arguments are primitives, nested GenericValues, tuples (for list
    types), or 2-element PairV wrappers (for pair types).  The class is
    frozen, and its `__init__` fills the two slots directly: setting
    each field through `object.__setattr__` in a Python frame, as
    `Frozen.__init__` does, costs about three times as much.
    """

    __slots__ = ("ctor", "args")

    def __init__(self, ctor: str, args: tuple = ()):
        _set_ctor(self, ctor)
        _set_args(self, args)


_set_ctor = GenericValue.ctor.__set__
_set_args = GenericValue.args.__set__


class PairV(Frozen):
    __slots__ = ("first", "second")

    def __init__(self, first: object, second: object):
        Frozen.__init__(self, first, second)


GV = GenericValue


# ---------------------------------------------------------------------------
# Validation (kinding)

class ValidationReport(Record):
    __slots__ = ("errors",)

    def __init__(self, errors: list[tuple[str, str]] | None = None):
        Record.__init__(self, [] if errors is None else errors)

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, rule: str, message: str):
        self.errors.append((rule, message))

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(f"{rule}: {msg}" for rule, msg in self.errors)


def validate_schema(schema: Schema) -> ValidationReport:
    """Check every constructor argument kinds to a value type.

    Reports UnknownTypeName for unresolved names, BadArity for misapplied
    containers (encoded structurally: ListT always has one argument and
    PairT two, so BadArity only arises from hand-built malformed types),
    and PrimitiveApplied is precluded structurally.
    """
    report = ValidationReport()
    type_names = {t for t, _ in schema.type_defs}
    seen_types = set()
    for tname, _ in schema.type_defs:
        if tname in seen_types:
            report.add("DuplicateType", f"type {tname} defined twice")
        seen_types.add(tname)
    if tname_dups := (PRIM_TYPES.keys() & type_names):
        report.add("PrimitiveShadowed", f"types shadow primitives: {sorted(tname_dups)}")
    if schema.root_type not in type_names:
        report.add("UnknownTypeName", f"root type {schema.root_type} undefined")

    seen_ctors = set()

    def check(ty: SchemaType, where: str):
        if isinstance(ty, Prim):
            if ty.name not in PRIM_TYPES:
                report.add("Prim", f"{where}: unknown primitive {ty.name}")
        elif isinstance(ty, Named):
            if ty.name not in type_names:
                report.add("UnknownTypeName", f"{where}: {ty.name} is not defined")
        elif isinstance(ty, ListT):
            check(ty.elem, where)
        elif isinstance(ty, PairT):
            check(ty.first, where)
            check(ty.second, where)
        else:
            report.add("BadArity", f"{where}: malformed type {ty!r}")

    for tname, ctors in schema.type_defs:
        for ctor in ctors:
            if ctor.name in seen_ctors:
                report.add("DuplicateConstructor", f"{ctor.name} declared twice")
            seen_ctors.add(ctor.name)
            for i, arg in enumerate(ctor.args):
                check(arg, f"{ctor.name} argument {i}")
    return report


# ---------------------------------------------------------------------------
# Modularization

# Built-in leaf kinds used when a primitive occurs inside a container,
# where elements must be terms.  Like the container kinds they belong to
# every signature and are not counted as generated kinds.
PRIM_SORTS = {p: Atom(f"#{p}") for p in PRIM_TYPES}
PRIM_BOX_KINDS = {
    p: NodeKind(f"{p}Box", (p,), (), PRIM_SORTS[p]) for p in PRIM_TYPES
}


class _CtorCodec:
    """How values of one constructor map to and from its node kind.

    `slots` has one entry per constructor argument: the primitive's name
    for a payload slot, else the (encode, read case) pair of a child slot.
    The encode plan: `payloads` pairs each payload's argument index with
    its Python class, and `encoders` each child's with its encoder, None
    for a constructor-typed child, which the walk encodes itself.  When
    the payloads come first and every child is constructor-typed,
    `split` is the number of payloads, else None; `build` is the kind's
    builder.  The decode plan: `readers` has the read case of each
    child, None where the reader reads it by its kind, and `order` puts
    the payloads followed by the decoded children back in argument
    order, or is None where they already are.
    """

    __slots__ = ("ctor", "kind", "build", "slots", "arity", "payloads", "encoders",
                 "split", "readers", "order")

    def __init__(self, ctor: str, kind: NodeKind, slots: tuple):
        self.ctor = ctor
        self.kind = kind
        self.build = kind.build
        self.slots = slots
        self.arity = len(slots)
        self.payloads = tuple(
            (i, PRIM_TYPES[s]) for i, s in enumerate(slots) if isinstance(s, str)
        )
        self.encoders = tuple(
            (i, s[0]) for i, s in enumerate(slots) if not isinstance(s, str)
        )
        self.readers = tuple(s[1] for s in slots if not isinstance(s, str))
        # the argument index of each payload, then of each child
        where = [i for i, _ in self.payloads] + [i for i, _ in self.encoders]
        in_order = where == sorted(where)
        self.order = None if in_order else tuple(map(where.index, range(len(where))))
        named = all(enc is None for _, enc in self.encoders)
        self.split = len(self.payloads) if in_order and named else None


class ModularizedLanguage(Frozen):
    """`sort_of` maps each type name to its sort.  The lookup tables are
    built once, here, outside repr, `==` and hash: sorts by type name
    and codecs by constructor name and by kind name."""

    __slots__ = ("schema", "signature", "sort_of", "fragment_of", "_sorts", "_by_ctor",
                 "_by_kind")
    __match_args__ = ("schema", "signature", "sort_of", "fragment_of")

    def __init__(self, schema: Schema, signature: Signature,
                 sort_of: tuple[tuple[str, Atom], ...],
                 fragment_of: tuple[tuple[str, tuple[NodeKind, ...]], ...]):
        Frozen.__init__(self, schema, signature, sort_of, fragment_of)
        by_ctor, by_kind = {}, {}
        name = schema.name
        for _, ctors in schema.type_defs:
            for ctor in ctors:
                codec = _CtorCodec(
                    ctor.name,
                    signature.kind(f"{name}.{ctor.name}"),
                    tuple(
                        a.name if isinstance(a, Prim) else _arg_codec(name, a)
                        for a in ctor.args
                    ),
                )
                by_ctor[ctor.name] = codec
                by_kind[codec.kind.name] = codec
        object.__setattr__(self, "_sorts", dict(sort_of))
        object.__setattr__(self, "_by_ctor", by_ctor)
        object.__setattr__(self, "_by_kind", by_kind)

    def sort_for(self, type_name: str) -> Atom:
        return self._sorts[type_name]

    @property
    def root_sort(self) -> Atom:
        return self.sort_for(self.schema.root_type)


def _translate_sort(lang_name: str, ty: SchemaType) -> Sort:
    if isinstance(ty, Prim):
        return PRIM_SORTS[ty.name]
    if isinstance(ty, Named):
        return Atom(f"{lang_name}.{ty.name}L")
    if isinstance(ty, ListT):
        return ListOf(_translate_sort(lang_name, ty.elem))
    if isinstance(ty, PairT):
        return PairOf(
            _translate_sort(lang_name, ty.first),
            _translate_sort(lang_name, ty.second),
        )
    raise InvalidSchema(f"malformed type {ty!r}")


def modularize_schema(schema: Schema) -> ModularizedLanguage:
    """One fresh sort per type name, one kind per constructor."""
    report = validate_schema(schema)
    if not report.ok:
        raise InvalidSchema(str(report))
    sort_of = tuple(
        (tname, Atom(f"{schema.name}.{tname}L")) for tname, _ in schema.type_defs
    )
    sorts = dict(sort_of)
    kinds = []
    fragments = []
    for tname, ctors in schema.type_defs:
        frag = []
        for ctor in ctors:
            payloads = []
            child_sorts = []
            for arg in ctor.args:
                # Top-level primitive arguments become payload slots; all
                # other arguments become sorted children.
                if isinstance(arg, Prim):
                    payloads.append(arg.name)
                else:
                    child_sorts.append(_translate_sort(schema.name, arg))
            kind = NodeKind(
                f"{schema.name}.{ctor.name}",
                tuple(payloads),
                tuple(child_sorts),
                sorts[tname],
            )
            kinds.append(kind)
            frag.append(kind)
        fragments.append((tname, tuple(frag)))
    signature = Signature(schema.name, tuple(kinds))
    return ModularizedLanguage(schema, signature, sort_of, tuple(fragments))


# How `reader` reads one node, in the two steps of `terms.fold`; `up` is
# None where `down` always gives the node's value outright.
Case = namedtuple("Case", "down up")


def _arg_codec(lang_name: str, ty: SchemaType) -> tuple[Callable | None, Case | None]:
    """(encode, read case) for a value of type ty in a child slot:
    encode(walk, value) -> Term encodes the constructor values inside
    value with `walk`, and the case reads the term back.  Both are None
    for a constructor-typed slot, which the walks encode and read alone.
    """
    if isinstance(ty, Prim):
        # Only reached inside containers; box the primitive as a leaf term.
        prim, box = ty.name, PRIM_BOX_KINDS[ty.name]

        def encode(walk, value):
            if not prim_matches(prim, value):
                raise NonConformingValue(f"expected {prim}, got {value!r}")
            return box.build(value)

        def unbox(term):
            if term.kind is not box:
                raise ForeignKind(f"expected boxed {prim}, got {term.kind.name}")
            return term.payload_values[0]

        return encode, Case(unbox, None)
    if isinstance(ty, Named):
        return None, None
    if isinstance(ty, ListT):
        build = list_kind(_translate_sort(lang_name, ty.elem)).build
        enc_elem, elem = _arg_codec(lang_name, ty.elem)

        def encode(walk, value):
            value = list_items(value)
            if enc_elem is None:
                return build(*map(walk, value))
            return build(*[enc_elem(walk, v) for v in value])

        def elems(term):
            return term.children if elem is None else [(elem, t) for t in term.children]

        return encode, Case(elems, lambda term, values: tuple(values))
    if isinstance(ty, PairT):
        enc_first, first = _arg_codec(lang_name, ty.first)
        enc_second, second = _arg_codec(lang_name, ty.second)

        def encode(walk, value):
            if not isinstance(value, PairV):
                raise NonConformingValue(f"expected PairV, got {value!r}")
            a, b = value.first, value.second
            return build_pair(
                walk(a) if enc_first is None else enc_first(walk, a),
                walk(b) if enc_second is None else enc_second(walk, b),
            )

        def halves(term):
            return [t if r is None else (r, t) for r, t in zip((first, second), term.children)]

        return encode, Case(halves, lambda term, values: PairV(*values))
    raise InvalidSchema(f"malformed type {ty!r}")


def list_items(value) -> tuple:
    """value, the elements of a list-typed argument; a case that reads a
    list argument itself checks it here, as the walk does."""
    if value.__class__ is not tuple and not isinstance(value, tuple):
        raise NonConformingValue(f"expected tuple for list, got {value!r}")
    return value


def walker(lang: ModularizedLanguage, cases: dict) -> Callable[[GenericValue], Term]:
    """The encoder walk of lang's values, with the cases `cases`.

    The walk checks each value it reaches: a constructor value of lang's
    schema, with the right number of arguments and payloads of the right
    class.  Then a constructor named in `cases` goes to its case, called
    as case(value, walk), which builds the value's node itself and
    encodes the children it keeps with `walk`; a case that is a node
    kind stands for the case that applies the kind to the encoded only
    child, which the walk does without the call.  Every other constructor
    is built from its codec plan by its kind's builder, with its children
    encoded by the same walk, and records `value` as its origin.  A wrong
    value raises NonConformingValue at the first bad argument in argument
    order; a child of the wrong sort raises SortMismatch from the node
    above.

    The walk recurses once per constructor-typed child and does not
    pause the collector; `to_modular` is this walk with no cases.
    """
    # one lookup per value: each constructor's codec and case
    plan = {ctor: (codec, cases.get(ctor)) for ctor, codec in lang._by_ctor.items()}.get

    def walk(value):
        if value.__class__ is not GenericValue and not isinstance(value, GenericValue):
            raise NonConformingValue(f"not a constructor value: {value!r}")
        entry = plan(value.ctor)
        if entry is None:
            raise NonConformingValue(f"unknown constructor {value.ctor}")
        codec, case = entry
        args = value.args
        if len(args) != codec.arity:
            raise NonConformingValue(
                f"{value.ctor}: expected {codec.arity} arguments, got {len(args)}"
            )
        for i, cls in codec.payloads:
            v = args[i]
            if v.__class__ is not cls and not prim_matches(codec.slots[i], v):
                # Report the first bad argument in argument order: a
                # child before this payload raises first.
                for j, enc in codec.encoders:
                    if j < i:
                        walk(args[j]) if enc is None else enc(walk, args[j])
                raise NonConformingValue(
                    f"{value.ctor}: expected {codec.slots[i]}, got {v!r}"
                )
        if case is not None:
            if case.__class__ is NodeKind:
                return case.build(walk(args[0]))
            return case(value, walk)
        split = codec.split
        if split is not None:
            return codec.build(*args[:split], *map(walk, args[split:]), origin=value)
        children = []
        for i, enc in codec.encoders:
            children.append(walk(args[i]) if enc is None else enc(walk, args[i]))
        return codec.build(*[args[i] for i, _ in codec.payloads], *children, origin=value)

    return walk


@gc_paused
def to_modular(lang: ModularizedLanguage, value: GenericValue) -> Term:
    """Encode a schema-conforming value as a sorted term of lang's own
    signature: the walk of `walker` with no cases.

    Each constructor node records the value it stands for as its origin,
    which from_modular returns.
    """
    return walker(lang, {})(value)


def reader(lang: ModularizedLanguage, cases: dict) -> Callable[[Term], GenericValue]:
    """The decoder walk of terms into lang's values, with the cases
    `cases`: the mirror of `walker`, as a `terms.fold`.

    A node whose kind is named in `cases` is read by its `Case`, one
    level at a time: `down(term)` checks the node and returns the terms
    below it to read, each read by its kind or, given as a pair (case,
    term), by that case, or else the node's value outright; `up(term,
    values)` builds the node's value from theirs.  Any other node must
    be of a kind of lang's signature, else it raises ForeignKind; it
    decodes to its origin if it records one, without a look below, and
    otherwise from its codec plan.  The walk builds no term, takes no
    Python frame per level and does not pause the collector;
    `from_modular` is this walk with no cases.
    """
    plan = {**lang._by_kind, **cases}.get

    def down(node):
        if node.__class__ is tuple:  # (case, term)
            return node[0].down(node[1])
        kind = node.kind
        codec = plan(kind.name)
        if codec.__class__ is Case:
            return codec.down(node)
        if codec is None or codec.kind is not kind:
            raise ForeignKind(f"kind {kind.name} is not part of {lang.schema.name}")
        if node.origin is not None:
            return node.origin
        if codec.split is not None:
            return node.children
        return [t if r is None else (r, t) for r, t in zip(codec.readers, node.children)]

    def up(node, values):
        if node.__class__ is tuple:
            return node[0].up(node[1], values)
        codec = plan(node.kind.name)
        if codec.__class__ is Case:
            return codec.up(node, values)
        args = node.payload_values + tuple(values)
        if codec.order is not None:
            args = tuple([args[i] for i in codec.order])
        return GenericValue(codec.ctor, args)

    return lambda term: fold(term, down, up)


@gc_paused
def from_modular(lang: ModularizedLanguage, term: Term) -> GenericValue:
    """Decode a term of this language's signature back into a value: the
    walk of `reader` with no cases."""
    return reader(lang, {})(term)


# ---------------------------------------------------------------------------
# Signature summing

def sum_signatures(
    name: str,
    parts: list[Signature],
    minus: list[str] = (),
    plus: list[NodeKind] = (),
) -> Signature:
    """Union of the parts' kinds, with `minus` removed and `plus` added."""
    kinds: dict[str, NodeKind] = {}
    for part in parts:
        for k in part.kinds:
            if k.name in kinds and kinds[k.name] != k:
                raise DuplicateKind(f"conflicting kind {k.name} while summing {name}")
            kinds[k.name] = k
    for removed in minus:
        if removed not in kinds:
            raise RemovedKindNotPresent(f"{removed} not present in sum {name}")
        del kinds[removed]
    for k in plus:
        if k.name in kinds:
            raise DuplicateKind(f"kind {k.name} already present in sum {name}")
        kinds[k.name] = k
    return Signature(name, tuple(kinds.values()))


# ---------------------------------------------------------------------------
# Text format

def parse_schema_text(text: str, name: str = "Schema") -> Schema:
    """Parse the line-oriented `type X = Ctor arg* | ...` format."""
    # Strip comments, join continuation of a definition on one line each.
    defs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("type "):
            raise InvalidSchema(f"line {lineno}: expected 'type', got {line!r}")
        body = line[len("type "):]
        if "=" not in body:
            raise InvalidSchema(f"line {lineno}: missing '='")
        tname, rhs = body.split("=", 1)
        tname = tname.strip()
        if not tname.isidentifier():
            raise InvalidSchema(f"line {lineno}: bad type name {tname!r}")
        ctors = []
        for alt in rhs.split("|"):
            toks = _tokenize_type(alt)
            if not toks:
                raise InvalidSchema(f"line {lineno}: empty constructor alternative")
            cname = toks[0]
            if not cname.isidentifier():
                raise InvalidSchema(f"line {lineno}: bad constructor name {cname!r}")
            args, rest = [], toks[1:]
            while rest:
                arg, rest = _parse_one_type(rest, lineno)
                args.append(arg)
            ctors.append(ConstructorDecl(cname, tuple(args)))
        defs.append((tname, tuple(ctors)))
    if not defs:
        raise InvalidSchema("no type definitions")
    return Schema(name, tuple(defs), defs[0][0])


def _tokenize_type(text: str) -> list[str]:
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "[](),":
            toks.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise InvalidSchema(f"bad character {c!r} in type")
            toks.append(text[i:j])
            i = j
    return toks


def _parse_one_type(toks: list[str], lineno: int) -> tuple[SchemaType, list[str]]:
    if not toks:
        raise InvalidSchema(f"line {lineno}: expected a type")
    head, rest = toks[0], toks[1:]
    if head == "[":
        ty, rest = _parse_one_type(rest, lineno)
        if not rest or rest[0] != "]":
            raise InvalidSchema(f"line {lineno}: missing ']'")
        return ListT(ty), rest[1:]
    if head == "(":
        first, rest = _parse_one_type(rest, lineno)
        if not rest or rest[0] != ",":
            raise InvalidSchema(f"line {lineno}: missing ',' in pair type")
        second, rest = _parse_one_type(rest[1:], lineno)
        if not rest or rest[0] != ")":
            raise InvalidSchema(f"line {lineno}: missing ')'")
        return PairT(first, second), rest[1:]
    if head in PRIM_TYPES:
        return Prim(head), rest
    if head.isidentifier():
        return Named(head), rest
    raise InvalidSchema(f"line {lineno}: unexpected token {head!r}")


def dump_modularized(lang: ModularizedLanguage) -> str:
    """Deterministic textual dump of the generated sorts and kinds."""
    lines = [f"language {lang.schema.name}", f"root {sort_name(lang.root_sort)}"]
    for tname, sort in lang.sort_of:
        lines.append(f"sort {sort_name(sort)}")
    for tname, frag in lang.fragment_of:
        for kind in frag:
            args = [p for p in kind.payloads] + [sort_name(s) for s in kind.child_sorts]
            sig = " ".join(args) if args else "()"
            lines.append(f"kind {kind.name} : {sig} -> {sort_name(kind.produced)}")
    return "\n".join(lines) + "\n"
