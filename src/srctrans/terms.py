"""Sorted terms: the uniform tree representation all languages share.

A term is a node kind applied to primitive payloads and sorted children.
Sorts are runtime tags checked at construction time, so an ill-sorted tree
can never be built through this module's constructors.  Sorts and node
kinds are interned: building one equal to an existing one returns that
object, so their equality is identity and the sort check is an identity
test.  List and pair
values are embedded as ordinary terms via the built-in container kinds,
which exist at every element sort: a list is one ListF node whose
children, any number of them, are its elements; a pair is a PairF node.

A term also remembers its provenance in `origin`: always the
GenericValue the node stands for.  The walk of `schema.walker` records
it on each node of a kind of the language's modular signature that it
builds (`schema.to_modular` on every constructor node, a frontend's
decompose on every surface node); IPS-only nodes, lists and the nodes a
pass builds record none.  Recompose (`schema.reader`) returns it at each
node a pass left in place and builds no term, so it costs what the pass built.
`origin` takes no part in equality, hashing or repr, and it is set once,
on a node just built, and never changed.

Terms are immutable and acyclic, so reference counting frees them.  The
layers that build trees (parse, decompose, the passes, the CFG builder
and its dump, recompose and pretty) therefore run with CPython's cyclic collector
paused, through `gc_paused`: otherwise every few hundred allocations
start a collection that traverses the live trees and finds nothing.  The
pause only defers cycle collection to the end of the call; no result
depends on it.  The collector is process-wide, so a call in one thread
may briefly pause collection for the others as well.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import cache, wraps
from typing import Iterable, Iterator, Optional, Union

# The primitive payload types, by name, and the Python class of each.
PRIM_TYPES = {"Int": int, "Bool": bool, "String": str}


def gc_paused(fn):
    """fn, run with the cyclic collector paused for the call.

    A call made while the collector is already off, as from an outer
    paused layer or by a caller that turned it off, leaves it as it is.
    Otherwise the collector is turned back on when fn returns or raises.
    Recursive walkers call the undecorated function, so the pause is
    taken once per layer call, not once per node.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class TermError(Exception):
    """Base class for term construction and inspection failures."""


class UnknownKind(TermError):
    pass


class ArityMismatch(TermError):
    pass


class SortMismatch(TermError):
    """A child of the wrong sort; `actual` is None for a non-term child."""

    def __init__(self, position, expected, actual):
        got = "a non-term" if actual is None else sort_name(actual)
        super().__init__(
            f"child {position}: expected sort {sort_name(expected)}, got {got}"
        )
        self.position = position
        self.expected = expected
        self.actual = actual


class PayloadMismatch(TermError):
    pass


_INTERN: dict = {}


class _Interned:
    """A value whose equal instances are one object.

    The constructor returns the instance first built with the same
    fields, so `==` is the default identity test and hashing is by id.
    Subclasses are frozen dataclasses with `init=False` whose fields are
    set here, in declaration order, once.
    """

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        self = _INTERN.get(key)
        if self is None:
            self = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(self, name, value)
            _INTERN[key] = self
        return self

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, n) for n in self.__match_args__)


@dataclass(frozen=True, eq=False, init=False)
class Atom(_Interned):
    """A nominal sort label."""

    name: str


@dataclass(frozen=True, eq=False, init=False)
class ListOf(_Interned):
    elem: "Sort"


@dataclass(frozen=True, eq=False, init=False)
class PairOf(_Interned):
    first: "Sort"
    second: "Sort"


Sort = Union[Atom, ListOf, PairOf]


def sort_name(sort: Sort) -> str:
    if isinstance(sort, Atom):
        return sort.name
    if isinstance(sort, ListOf):
        return f"[{sort_name(sort.elem)}]"
    if isinstance(sort, PairOf):
        return f"({sort_name(sort.first)}, {sort_name(sort.second)})"
    raise TypeError(f"not a sort: {sort!r}")


@dataclass(frozen=True, eq=False, init=False)
class NodeKind(_Interned):
    """A constructor descriptor: payload slots, child sorts, produced sort."""

    name: str
    payloads: tuple[str, ...]
    child_sorts: tuple[Sort, ...]
    produced: Sort

    def __new__(cls, name: str, payloads: Iterable[str], child_sorts: Iterable[Sort],
                produced: Sort):
        payloads = tuple(payloads)
        for p in payloads:
            if p not in PRIM_TYPES:
                raise ValueError(f"{name}: bad payload type {p!r}")
        return super().__new__(cls, name, payloads, tuple(child_sorts), produced)

    def __repr__(self):
        return f"NodeKind({self.name})"


@dataclass(frozen=True, slots=True)
class Term:
    """An immutable sorted tree node.  Build through mk_term only.

    `origin` is the provenance described in the module docstring, or None
    for a node built otherwise, as a pass builds its nodes.
    """

    kind: NodeKind
    payload_values: tuple
    children: tuple["Term", ...]
    origin: object = field(default=None, compare=False, repr=False)

    @property
    def sort(self) -> Sort:
        return self.kind.produced


# mk_term fills a new Term's slots directly: the frozen __init__ would set
# each field through object.__setattr__ in a Python frame.
_new_term = object.__new__
_set_kind = Term.kind.__set__
_set_payloads = Term.payload_values.__set__
_set_children = Term.children.__set__
# Sets a node's origin, once, on the node mk_term just built.
_set_origin = Term.origin.__set__


def prim_matches(ty: str, value) -> bool:
    """Is value a payload of primitive type ty?  A bool is not an Int."""
    return isinstance(value, PRIM_TYPES[ty]) and not (ty == "Int" and isinstance(value, bool))


def _check_payload(kind: NodeKind, values) -> tuple:
    tys = kind.payloads
    # most kinds have one payload, and its value is of exactly that class
    if len(values) == 1 == len(tys) and values[0].__class__ is PRIM_TYPES[tys[0]]:
        return values
    if len(values) != len(tys):
        raise ArityMismatch(
            f"{kind.name}: expected {len(tys)} payloads, got {len(values)}"
        )
    for i, (ty, v) in enumerate(zip(tys, values)):
        if not prim_matches(ty, v):
            got = "Bool" if ty == "Int" and isinstance(v, bool) else type(v).__name__
            raise PayloadMismatch(f"{kind.name} payload {i}: expected {ty}, got {got}")
    return tuple(values)


def _check_children(wants: tuple, children: tuple) -> None:
    for i, (want, child) in enumerate(zip(wants, children)):
        if not isinstance(child, Term):
            raise SortMismatch(i, want, None)
        got = child.kind.produced
        if got != want:
            raise SortMismatch(i, want, got)


def _child_sorts(kind: NodeKind, n: int) -> tuple:
    """The sorts of n children of kind: a list kind takes any number of
    children of its element sort, every other kind its own child sorts."""
    wants = kind.child_sorts
    if n == len(wants):
        return wants
    if kind.name == "ListF":
        return wants * n
    raise ArityMismatch(f"{kind.name}: expected {len(wants)} children, got {n}")


def mk_term(kind: NodeKind, payloads: Iterable = (), children: Iterable[Term] = (),
            origin: object = None) -> Term:
    """Construct a well-sorted term, rejecting arity and sort mismatches.

    `origin` is the new node's provenance, the value it stands for; only
    the walk of `schema.walker` passes one.
    """
    if not isinstance(kind, NodeKind):
        raise UnknownKind(f"not a node kind: {kind!r}")
    if kind.payloads or payloads:
        payloads = _check_payload(kind, tuple(payloads))
    else:
        payloads = ()
    if children.__class__ is not tuple:
        children = tuple(children)
    wants = kind.child_sorts
    if len(children) != len(wants):
        wants = _child_sorts(kind, len(children))
    for want, child in zip(wants, children):
        if child.__class__ is not Term or child.kind.produced is not want:
            _check_children(wants, children)
            break
    t = _new_term(Term)
    _set_kind(t, kind)
    _set_payloads(t, payloads)
    _set_children(t, children)
    _set_origin(t, origin)
    return t


# ---------------------------------------------------------------------------
# Container kinds.  These are built-in and instantiable at every element
# sort; they belong to every signature.  The list kind is memoized per
# element sort, since every list built needs it.

@cache
def list_kind(elem: Sort) -> NodeKind:
    """The kind of a list of elem: its children are the elements."""
    return NodeKind("ListF", (), (elem,), ListOf(elem))


def pair_kind(first: Sort, second: Sort) -> NodeKind:
    return NodeKind("PairF", (), (first, second), PairOf(first, second))


CONTAINER_KIND_NAMES = frozenset({"ListF", "PairF"})


def is_container_kind(kind: NodeKind) -> bool:
    return kind.name in CONTAINER_KIND_NAMES


def build_list(elem_sort: Sort, items: Iterable[Term]) -> Term:
    return mk_term(list_kind(elem_sort), (), items)


def build_pair(first: Term, second: Term) -> Term:
    return mk_term(pair_kind(first.sort, second.sort), (), (first, second))


# ---------------------------------------------------------------------------
# Signatures

@dataclass(frozen=True)
class Signature:
    """A finite set of node kinds naming one language representation.

    Container kinds are implicit members of every signature and are not
    listed.
    """

    name: str
    kinds: tuple[NodeKind, ...]
    _by_name: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        seen = {}
        for k in self.kinds:
            if k.name in seen:
                raise ValueError(f"duplicate kind name {k.name!r} in {self.name}")
            seen[k.name] = k
        self._by_name.update(seen)

    def kind(self, name: str) -> NodeKind:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownKind(f"{self.name} has no kind {name!r}") from None

    def has_kind(self, name: str) -> bool:
        return name in self._by_name

    def contains(self, kind: NodeKind) -> bool:
        if is_container_kind(kind):
            return True
        return self._by_name.get(kind.name) == kind


def check_term(term: Term, signature: Optional[Signature] = None) -> None:
    """Exhaustively re-verify well-sortedness of a whole tree.

    Test support: asserts the construction-time invariant really holds on
    every reachable node, and optionally that all kinds belong to the
    signature.
    """
    stack = [term]
    while stack:
        t = stack.pop()
        if signature is not None and not signature.contains(t.kind):
            raise UnknownKind(f"kind {t.kind.name} not in signature {signature.name}")
        _check_payload(t.kind, t.payload_values)
        wants = _child_sorts(t.kind, len(t.children))
        for i, (want, child) in enumerate(zip(wants, t.children)):
            if child.sort != want:
                raise SortMismatch(i, want, child.sort)
            stack.append(child)


# ---------------------------------------------------------------------------
# Debug serialization

def to_sexpr(term: Term) -> str:
    """Parenthesized dump `(KindName payload* child*)`, strings quoted."""
    parts = [term.kind.name]
    for ty, v in zip(term.kind.payloads, term.payload_values):
        if ty == "String":
            parts.append('"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"')
        elif ty == "Bool":
            parts.append("true" if v else "false")
        else:
            parts.append(str(v))
    for child in term.children:
        parts.append(to_sexpr(child))
    return "(" + " ".join(parts) + ")"


def iter_subterms(term: Term) -> Iterator[Term]:
    """Pre-order iteration over all nodes of a term."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(t.children))
