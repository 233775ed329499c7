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
recompose go straight between value and IPS term; the cases of the
generic fragments are classes here (`IdentCase` and those after it),
whose nodes the walk builds in one step.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from .fragments import (
    ASSIGN,
    ASSIGN_OP_EQUALS,
    BLOCK,
    BLOCK_ITEM_L,
    EMPTY_BLOCK_END,
    EMPTY_DECL_ATTRS,
    IDENT,
    IDENT_IS_BINDER,
    JUST_INIT,
    MULTI_DECL,
    MULTI_DECL_IS_ITEM,
    OPT_LOCAL_VAR_INIT_L,
    SINGLE_DECL,
)
from .records import Frozen, Record
from .terms import (
    Atom,
    ListOf,
    NodeKind,
    PRIM_TYPES,
    PairOf,
    Signature,
    Sort,
    SortMismatch,
    Term,
    _new,
    build_list,
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

    def __eq__(self, other):
        """A frozen dataclass's `==`, on an explicit stack, so that a deep
        value takes no Python frame per level: identity first, then
        values, tuples and PairVs part by part (`_PARTS`), anything else
        by `==`."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self._values(self), other._values(other))]  # parts to compare
        while todo:
            for a, b in zip(*todo.pop()):
                if a is b:
                    continue
                parts = _PARTS.get(a.__class__)
                if parts is None or b.__class__ is not a.__class__:
                    if a != b:
                        return False
                    continue
                a, b = parts(a), parts(b)
                if len(a) != len(b):
                    return False
                todo.append((a, b))
        return True

    def __hash__(self):
        """hash((ctor, args)), the hash a frozen dataclass has, from the
        hashes of the parts, so that a deep value takes no Python frame
        per level: equal values have equal parts, so equal hashes."""
        return fold(self, _hash_down, _hash_up).value

    def __repr__(self):
        """The repr a dataclass has, `GenericValue(ctor=..., args=...)`,
        written out piece by piece from an explicit stack and joined
        once: a value, a PairV or a tuple shows its parts (`_PARTS`), and
        anything else shows its own repr."""
        out = []
        todo = [(False, self)]  # (True, text) or (False, part to show)
        while todo:
            is_text, part = todo.pop()
            parts = None if is_text else _PARTS.get(part.__class__)
            if parts is None:
                out.append(part if is_text else repr(part))
                continue
            values = parts(part)
            if part.__class__ is tuple:
                pieces = [(True, "(")]
                labels = [""] * len(values)
                close = ",)" if len(values) == 1 else ")"
            else:
                pieces = [(True, f"{part.__class__.__qualname__}(")]
                labels = [f"{name}=" for name in part._compared]
                close = ")"
            for i, (label, value) in enumerate(zip(labels, values)):
                pieces.append((True, f"{', ' if i else ''}{label}"))
                pieces.append((False, value))
            pieces.append((True, close))
            todo.extend(reversed(pieces))
        return "".join(out)


_set_ctor = GenericValue.ctor.__set__
_set_args = GenericValue.args.__set__


class PairV(Frozen):
    __slots__ = ("first", "second")

    def __init__(self, first: object, second: object):
        Frozen.__init__(self, first, second)


_PARTS = {GenericValue: GenericValue._values, PairV: PairV._values, tuple: tuple}
GV = GenericValue


class _Hashed:
    """A stand-in whose hash is a part's hash: a tuple of them hashes as
    the tuple of the parts would."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


# The fold of GenericValue's hash: a value, a PairV or a tuple folds its
# parts (`_PARTS`); anything else is a leaf, hashed by itself.

def _hash_down(part):
    parts = _PARTS.get(part.__class__)
    return _Hashed(hash(part)) if parts is None else parts(part)


def _hash_up(part, hashes) -> _Hashed:
    return _Hashed(hash(tuple(hashes)))


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
    list argument itself checks it here, as the walk does.  A Term is a
    tuple too, but a node, not a list."""
    if value.__class__ is not tuple and (not isinstance(value, tuple) or isinstance(value, Term)):
        raise NonConformingValue(f"expected tuple for list, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# The trans cases of the generic fragments
#
# A frontend's decompose replaces its identifiers, assignments, blocks,
# declarators and initializers by the generic fragments, each under the
# frontend's injections.  Each class below is the case of one such
# constructor, given by those injections.  It is a case like any other,
# case(value, walk), which builds through the kinds' builders, and
# `finish` is the same case from the encoded children on.  The walk
# builds the fragments in one step instead whenever the builders' inline
# tests hold (see walker), and calls `finish` on any other input.

_ITEM_LIST = list_kind(BLOCK_ITEM_L)


def _block(block_is: NodeKind, items: tuple) -> Term:
    """block_is(Block(items, EmptyBlockEnd)) made in one step, for block
    items the walk has checked."""
    parts = (_new(Term, (_ITEM_LIST, (), items, None)),
             _new(Term, (EMPTY_BLOCK_END, (), (), None)))
    return _new(Term, (block_is, (), (_new(Term, (BLOCK, (), parts, None)),), None))


class IdentCase:
    """`Ident name` as ident_is(Ident name)."""

    __slots__ = ("ident_is",)

    def __init__(self, ident_is: NodeKind):
        self.ident_is = ident_is

    def __call__(self, value, walk) -> Term:
        return self.ident_is.build(IDENT.build(value.args[0]))


class InitCase:
    """An initializer option that holds its initializer, as
    JustLocalVarInit(init_is(init))."""

    __slots__ = ("init_is",)

    def __init__(self, init_is: NodeKind):
        self.init_is = init_is

    def finish(self, init: Term) -> Term:
        return JUST_INIT.build(self.init_is.build(init))

    def __call__(self, value, walk) -> Term:
        return self.finish(walk(value.args[0]))


class AssignCase:
    """`lhs = rhs` as assign_is(Assign(lhs_is(lhs), AssignOpEquals, rhs_is(rhs)))."""

    __slots__ = ("assign_is", "lhs_is", "rhs_is")

    def __init__(self, assign_is: NodeKind, lhs_is: NodeKind, rhs_is: NodeKind):
        self.assign_is, self.lhs_is, self.rhs_is = assign_is, lhs_is, rhs_is

    def finish(self, lhs: Term, rhs: Term) -> Term:
        lhs, rhs = self.lhs_is.build(lhs), self.rhs_is.build(rhs)
        return self.assign_is.build(ASSIGN.build(lhs, ASSIGN_OP_EQUALS.build(), rhs))

    def __call__(self, value, walk) -> Term:
        lhs, rhs = value.args
        return self.finish(walk(lhs), walk(rhs))


class BlockCase:
    """A statement list as block_is(Block [item], EmptyBlockEnd).  With
    stmt_is, each encoded element that is a MultiLocalVarDecl goes under
    MultiLocalVarDeclIsBlockItem and every other under stmt_is; with
    None, each encoded element is a block item itself."""

    __slots__ = ("block_is", "stmt_is")

    def __init__(self, block_is: NodeKind, stmt_is: NodeKind | None):
        self.block_is, self.stmt_is = block_is, stmt_is

    def finish(self, elems) -> Term:
        stmt_is = self.stmt_is
        if stmt_is is not None:
            elems = [MULTI_DECL_IS_ITEM.build(t) if t.kind is MULTI_DECL else stmt_is.build(t)
                     for t in elems]
        block = BLOCK.build(build_list(BLOCK_ITEM_L, elems), EMPTY_BLOCK_END.build())
        return self.block_is.build(block)

    def __call__(self, value, walk) -> Term:
        return self.finish(list(map(walk, list_items(value.args[0]))))


class DeclaratorCase:
    """A declarator of an identifier, which the walk gives under
    ident_is, and an initializer option, as SingleLocalVarDecl with no
    attributes and the identifier under IdentIsVarDeclBinder."""

    __slots__ = ("ident_is",)

    def __init__(self, ident_is: NodeKind):
        self.ident_is = ident_is

    def finish(self, name: Term, opt: Term) -> Term:
        ident_sort = self.ident_is.produced
        if name.sort != ident_sort:
            raise SortMismatch(0, ident_sort, name.sort)
        binder = IDENT_IS_BINDER.build(name.children[0])
        return SINGLE_DECL.build(EMPTY_DECL_ATTRS.build(), binder, opt)

    def __call__(self, value, walk) -> Term:
        name, opt = value.args
        return self.finish(walk(name), walk(opt))


# The constructor shapes that the walk writes out, one small int each: a
# plain node with its payloads first (P, one payload; C, each child; L,
# a list of constructor values), a case that is a node kind, a case
# function of a constructor with no payload, and the generic fragments'
# cases above.  A shape is written out when it makes at least 1 % of the
# values walked on both the transform-large and the difftest-gen
# workloads: over every op at seed 4242 the rarest kept, _ITEM_BLOCK (a
# block of items, MiniC's), makes 1.01-1.16 %, and the next, a plain node
# of one payload and one child, 0.54-0.65 %; the initializer option that
# holds none makes 0.14-0.15 % and stays a case function.  Any other
# constructor is _CHECKED.
(_CHECKED, _P1, _C0, _C1, _C3, _P1C2, _L1, _C1L1, _IS, _CASE, _IDENT, _INIT, _ASSIGN,
 _BLOCK, _ITEM_BLOCK, _DTOR) = range(16)
_NODE_SHAPES = {(1, 0): _P1, (0, 0): _C0, (0, 1): _C1, (0, 3): _C3, (1, 2): _P1C2}


def _walk_entry(codec: _CtorCodec, case, lang_sorts) -> tuple:
    """The walk's plan entry of one constructor, with its case or None:
    (shape, kind, a, b, c, codec, case).  For a plain node, kind is its
    kind and a, b, c are its payload classes and then its child sorts,
    where a list gives its kind and its element sort; for a node-kind
    case, kind is the case and a its child sort; for a case function, a
    is the arity.  For a fragment case, kind is its outermost injection,
    or for a declarator the injection its identifier must be under; a is
    the class of an identifier's payload, the sort an initializer must
    have, or a statement and b its injection, or the sort of an
    assignment's target and b that of its source.  `lang_sorts` are the
    sorts of the language's types."""
    classes = [cls for _, cls in codec.payloads]
    kind = codec.kind
    arity = codec.arity
    if case is None:
        shape = _NODE_SHAPES.get((len(classes), len(codec.encoders)))
        if shape is not None and codec.split is not None:
            a, b, c, *_ = *classes, *kind.child_sorts, None, None, None
            return shape, kind, a, b, c, codec, None
        # a list of constructor values, alone or after one such child
        *named, last = kind.child_sorts or (None,)
        if (not classes and len(named) < 2 and last.__class__ is ListOf
                and last.elem in lang_sorts and lang_sorts.issuperset(named)):
            elem = last.elem
            if named:
                return _C1L1, kind, named[0], list_kind(elem), elem, codec, None
            return _L1, kind, list_kind(elem), elem, None, codec, None
        return _CHECKED, None, None, None, None, codec, None
    cls = case.__class__
    named = codec.split == 0  # the arguments are all constructor-typed
    if classes:
        if cls is IdentCase and arity == 1 and classes == [PRIM_TYPES[IDENT.payloads[0]]]:
            return _IDENT, case.ident_is, classes[0], None, None, codec, case
    elif cls is NodeKind:
        if arity == 1 and named:
            return _IS, case, case.child_sorts[0], None, None, codec, case
    elif cls is BlockCase and arity == 1:
        stmt_is = case.stmt_is
        if stmt_is is None:
            return _ITEM_BLOCK, case.block_is, None, None, None, codec, case
        return _BLOCK, case.block_is, stmt_is.child_sorts[0], stmt_is, None, codec, case
    elif cls is InitCase and arity == 1 and named:
        return _INIT, case.init_is, case.init_is.child_sorts[0], None, None, codec, case
    elif cls is AssignCase and arity == 2 and named:
        a, b = case.lhs_is.child_sorts[0], case.rhs_is.child_sorts[0]
        return _ASSIGN, case.assign_is, a, b, None, codec, case
    elif cls is DeclaratorCase and arity == 2 and named:
        return _DTOR, case.ident_is, None, None, None, codec, case
    else:
        return _CASE, None, arity, None, None, codec, case
    return _CHECKED, None, None, None, None, codec, case


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

    The shapes of constructor that make at least 1 % of the values
    walked (`_walk_entry`) are written out at the top of the walk: when
    the arguments are a tuple of the right length, each payload is
    exactly its class and each encoded child a Term of exactly its sort,
    the walk makes the node in place, as its builder would.  A fragment
    case (`IdentCase` and the classes after it) is written out the same
    way: the walk makes its nodes, one `tuple.__new__` each, where its
    builders' inline tests hold, and otherwise calls its `finish` on the
    encoded children.  Anything else goes on to the checking code below
    them, which raises what it raised before they were written out.

    The walk recurses once per constructor-typed child and does not
    pause the collector; `to_modular` is this walk with no cases.
    """
    # one lookup per value: each constructor's plan entry
    lang_sorts = set(lang._sorts.values())
    plan = {ctor: _walk_entry(codec, cases.get(ctor), lang_sorts)
            for ctor, codec in lang._by_ctor.items()}.get

    def walk(value):
        if value.__class__ is not GenericValue and not isinstance(value, GenericValue):
            raise NonConformingValue(f"not a constructor value: {value!r}")
        entry = plan(value.ctor)
        if entry is None:
            raise NonConformingValue(f"unknown constructor {value.ctor}")
        shape, kind, a, b, c, codec, case = entry
        args = value.args
        if args.__class__ is tuple:
            n = len(args)
            if shape == _P1:
                if n == 1 and args[0].__class__ is a:  # args is the payload tuple
                    return _new(Term, (kind, args, (), value))
            elif shape == _C1:
                if n == 1:
                    c0 = walk(args[0])
                    if c0.__class__ is Term and c0.kind.produced is a:
                        return _new(Term, (kind, (), (c0,), value))
                    return kind.build(c0, origin=value)
            elif shape == _IDENT:
                if n == 1 and args[0].__class__ is a:  # args is the payload tuple
                    return _new(Term, (kind, (), (_new(Term, (IDENT, args, (), None)),), None))
            elif shape == _P1C2:
                if n == 3 and args[0].__class__ is a:
                    c0 = walk(args[1])
                    c1 = walk(args[2])
                    if (c0.__class__ is Term and c0.kind.produced is b
                            and c1.__class__ is Term and c1.kind.produced is c):
                        return _new(Term, (kind, (args[0],), (c0, c1), value))
                    return kind.build(args[0], c0, c1, origin=value)
            elif shape == _C1L1:
                if n == 2 and args[1].__class__ is tuple:
                    c0 = walk(args[0])
                    elems = tuple(map(walk, args[1]))
                    for e in elems:
                        if e.__class__ is not Term or e.kind.produced is not c:
                            break
                    else:
                        if c0.__class__ is Term and c0.kind.produced is a:
                            return _new(Term, (kind, (), (c0, _new(Term, (b, (), elems, None))),
                                               value))
                    return kind.build(c0, b.build(*elems), origin=value)
            elif shape == _L1:
                if n == 1 and args[0].__class__ is tuple:
                    elems = tuple(map(walk, args[0]))
                    for e in elems:
                        if e.__class__ is not Term or e.kind.produced is not b:
                            return kind.build(a.build(*elems), origin=value)
                    return _new(Term, (kind, (), (_new(Term, (a, (), elems, None)),), value))
            elif shape == _IS:
                if n == 1:
                    c0 = walk(args[0])
                    if c0.__class__ is Term and c0.kind.produced is a:
                        return _new(Term, (kind, (), (c0,), None))
                    return kind.build(c0)
            elif shape == _ASSIGN:
                if n == 2:
                    c0 = walk(args[0])
                    c1 = walk(args[1])
                    if (c0.__class__ is Term and c0.kind.produced is a
                            and c1.__class__ is Term and c1.kind.produced is b):
                        return _new(Term, (kind, (), (_new(Term, (ASSIGN, (), (
                            _new(Term, (case.lhs_is, (), (c0,), None)),
                            _new(Term, (ASSIGN_OP_EQUALS, (), (), None)),
                            _new(Term, (case.rhs_is, (), (c1,), None))), None)),), None))
                    return case.finish(c0, c1)
            elif shape == _C0:
                if not n:
                    return _new(Term, (kind, (), (), value))
            elif shape == _CASE:
                if n == a:
                    return case(value, walk)
            elif shape == _BLOCK:
                if n == 1 and args[0].__class__ is tuple:
                    elems = list(map(walk, args[0]))
                    items = []
                    for e in elems:
                        if e.__class__ is not Term:
                            break
                        if e.kind is MULTI_DECL:
                            items.append(_new(Term, (MULTI_DECL_IS_ITEM, (), (e,), None)))
                        elif e.kind.produced is a:
                            items.append(_new(Term, (b, (), (e,), None)))
                        else:
                            break
                    else:
                        return _block(kind, tuple(items))
                    return case.finish(elems)
            elif shape == _INIT:
                if n == 1:
                    c0 = walk(args[0])
                    if c0.__class__ is Term and c0.kind.produced is a:
                        return _new(Term, (JUST_INIT, (), (_new(Term, (kind, (), (c0,), None)),),
                                           None))
                    return case.finish(c0)
            elif shape == _DTOR:
                if n == 2:
                    c0 = walk(args[0])
                    c1 = walk(args[1])
                    if (c0.__class__ is Term and c0.kind is kind
                            and c1.__class__ is Term and c1.kind.produced is OPT_LOCAL_VAR_INIT_L):
                        return _new(Term, (SINGLE_DECL, (), (
                            _new(Term, (EMPTY_DECL_ATTRS, (), (), None)),
                            _new(Term, (IDENT_IS_BINDER, (), c0.children, None)), c1), None))
                    return case.finish(c0, c1)
            elif shape == _C3:
                if n == 3:
                    c0 = walk(args[0])
                    c1 = walk(args[1])
                    c2 = walk(args[2])
                    if (c0.__class__ is Term and c0.kind.produced is a
                            and c1.__class__ is Term and c1.kind.produced is b
                            and c2.__class__ is Term and c2.kind.produced is c):
                        return _new(Term, (kind, (), (c0, c1, c2), value))
                    return kind.build(c0, c1, c2, origin=value)
            elif shape == _ITEM_BLOCK:
                if n == 1 and args[0].__class__ is tuple:
                    items = tuple(map(walk, args[0]))
                    for e in items:
                        if e.__class__ is not Term or e.kind.produced is not BLOCK_ITEM_L:
                            return case.finish(items)
                    return _block(kind, items)
        # the checking code
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
        origin = node.origin
        if origin is not None:
            return origin
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
