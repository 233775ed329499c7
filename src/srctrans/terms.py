"""Sorted terms: the uniform tree representation all languages share.

A term is a node kind applied to primitive payloads and sorted children.
Sorts are runtime tags checked at construction time, so an ill-sorted tree
can never be built through this module's constructors.  Sorts and node
kinds are interned: building one equal to an existing one returns that
object, so their equality is identity and the sort check is an identity
test.  Each node kind gets one builder, `kind.build`, when it is first
interned, specialised to the kind's payload classes, child sorts and
list-ness.  It tests the common case inline, and on a mismatch runs
mk_term's checks, so it raises what mk_term raises; each node is checked
once, where it is built.  Code that knows the kind it builds calls its
builder; mk_term is for code that rebuilds a node of a kind it read from
another node.  List and pair
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
start a collection that traverses the live trees and finds nothing.
`difftest.diff_one` takes one pause over all of these and its two runs;
the cyclic garbage a run makes is bounded by its fuel and is collected
after `diff_one` returns.  The pause only defers cycle collection to the
end of the call; no result depends on it.  The collector is
process-wide, so a call in one thread may briefly pause collection for
the others as well.
"""

from __future__ import annotations

import gc
from collections.abc import Iterable, Iterator
from functools import cache, wraps
from operator import attrgetter

from .records import Frozen

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


class _Interned(Frozen):
    """A value whose equal instances are one object.

    The constructor returns the instance first built with the same
    fields, so `==` is the default identity test and hashing is by id.
    Subclasses are frozen, with the fields of their `__match_args__`
    set here, in that order, once; there is no `__init__`.
    """

    __slots__ = ()
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, *fields):
        key = (cls, *fields)
        self = _INTERN.get(key)
        if self is None:
            self = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(self, name, value)
            _INTERN[key] = self
        return self


class Atom(_Interned):
    """A nominal sort label."""

    __slots__ = ("name",)


class ListOf(_Interned):
    __slots__ = ("elem",)


class PairOf(_Interned):
    __slots__ = ("first", "second")


Sort = Atom | ListOf | PairOf


def sort_name(sort: Sort) -> str:
    if isinstance(sort, Atom):
        return sort.name
    if isinstance(sort, ListOf):
        return f"[{sort_name(sort.elem)}]"
    if isinstance(sort, PairOf):
        return f"({sort_name(sort.first)}, {sort_name(sort.second)})"
    raise TypeError(f"not a sort: {sort!r}")


class NodeKind(_Interned):
    """A constructor descriptor: payload slots, child sorts, produced sort.

    `build` is the kind's builder, made once when the kind is first
    interned: `kind.build(*payloads, *children, origin=None)` is
    `mk_term(kind, payloads, children, origin)` with the payloads split
    off by the kind's payload count.
    """

    __slots__ = ("name", "payloads", "child_sorts", "produced", "build")
    __match_args__ = ("name", "payloads", "child_sorts", "produced")

    def __new__(cls, name: str, payloads: Iterable[str], child_sorts: Iterable[Sort],
                produced: Sort):
        payloads = tuple(payloads)
        for p in payloads:
            if p not in PRIM_TYPES:
                raise ValueError(f"{name}: bad payload type {p!r}")
        self = super().__new__(cls, name, payloads, tuple(child_sorts), produced)
        if not hasattr(self, "build"):
            object.__setattr__(self, "build", _builder(self))
        return self

    def __repr__(self):
        return f"NodeKind({self.name})"


class Term(Frozen):
    """An immutable sorted tree node.  Build through a kind's builder, or
    through mk_term to rebuild a node of a kind read from another node.

    `origin` is the provenance described in the module docstring, or None
    for a node built otherwise, as a pass builds its nodes; it is outside
    repr, `==` and hash.
    """

    __slots__ = ("kind", "payload_values", "children", "origin")
    _compared = ("kind", "payload_values", "children")

    def __init__(self, kind: NodeKind, payload_values: tuple, children: tuple[Term, ...],
                 origin: object = None):
        Frozen.__init__(self, kind, payload_values, children, origin)

    @property
    def sort(self) -> Sort:
        return self.kind.produced


# The builders fill a new Term's slots directly: __init__ would set each
# field through object.__setattr__ in a Python frame.
_new_term = object.__new__
_set_kind = Term.kind.__set__
_set_payloads = Term.payload_values.__set__
_set_children = Term.children.__set__
# Sets a node's origin, once, on the node just built.
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
    """Construct a well-sorted term, rejecting arity and sort mismatches:
    the term of kind's builder, with the payloads given apart.

    `origin` is the new node's provenance, the value it stands for; only
    the walk of `schema.walker` passes one.
    """
    if not isinstance(kind, NodeKind):
        raise UnknownKind(f"not a node kind: {kind!r}")
    if payloads.__class__ is not tuple:
        payloads = tuple(payloads)
    if len(payloads) != len(kind.payloads):
        return _checked(kind, payloads, tuple(children), origin)
    return kind.build(*payloads, *children, origin=origin)


def _checked(kind: NodeKind, payloads: tuple, children: tuple, origin: object) -> Term:
    """The term when a builder's inline test fails, or mk_term's payload
    count: every check, in one order, so a builder and mk_term raise the
    same exception for the same input."""
    if kind.payloads or payloads:
        payloads = _check_payload(kind, payloads)
    _check_children(_child_sorts(kind, len(children)), children)
    t = _new_term(Term)
    _set_kind(t, kind)
    _set_payloads(t, payloads)
    _set_children(t, children)
    _set_origin(t, origin)
    return t


# A builder's source, by shape.  The inline test asks that each payload be
# of exactly its class and each child a Term of exactly its sort; anything
# else goes to _checked, which accepts what mk_term accepts.
_LIST_BUILDER = """\
def build(*args, origin=None):
    for c in args:
        if c.__class__ is not Term or c.kind.produced is not S0:
            return checked(kind, (), args, origin)
    t = new(Term)
    set_kind(t, kind)
    set_payloads(t, ())
    set_children(t, args)
    set_origin(t, origin)
    return t
"""

_BUILDER = """\
def build(*args, origin=None):
    if len(args) == {n}:
        {unpack}
        if {test}:
            t = new(Term)
            set_kind(t, kind)
            set_payloads(t, {payloads})
            set_children(t, {children})
            set_origin(t, origin)
            return t
    return checked(kind, args[:{np}], args[{np}:], origin)
"""


@cache
def _builder_maker(n_payloads: int, n_children: int, is_list: bool):
    """The function that makes a builder for kinds of one shape, given
    the kind, its payload classes P0... and its child sorts S0...."""
    names = [f"P{i}" for i in range(n_payloads)] + [f"S{i}" for i in range(n_children)]
    if is_list:
        body = _LIST_BUILDER
    else:
        ps = [f"p{i}" for i in range(n_payloads)]
        cs = [f"c{i}" for i in range(n_children)]
        test = [f"{p}.__class__ is P{i}" for i, p in enumerate(ps)] + [
            f"{c}.__class__ is Term and {c}.kind.produced is S{i}" for i, c in enumerate(cs)
        ]
        body = _BUILDER.format(
            n=len(ps + cs),
            unpack=f"{', '.join(ps + cs)}, = args" if ps or cs else "pass",
            test=" and ".join(test) or "True",
            payloads=f"({', '.join(ps)},)" if ps else "()",
            children="args" if not ps else f"({', '.join(cs)},)" if cs else "()",
            np=n_payloads,
        )
    source = f"def make({', '.join(['kind', *names])}):\n"
    source += "".join(f"    {line}\n" for line in body.splitlines()) + "    return build\n"
    scope = {
        "Term": Term, "new": _new_term, "checked": _checked, "set_kind": _set_kind,
        "set_payloads": _set_payloads, "set_children": _set_children,
        "set_origin": _set_origin,
    }
    exec(compile(source, f"<builder {n_payloads}/{n_children}{'*' if is_list else ''}>",
                 "exec"), scope)
    return scope["make"]


def _builder(kind: NodeKind):
    """kind's builder: see NodeKind.  Its `kind` attribute is kind."""
    is_list = kind.name == "ListF"
    make = _builder_maker(len(kind.payloads), len(kind.child_sorts), is_list)
    build = make(kind, *(PRIM_TYPES[p] for p in kind.payloads), *kind.child_sorts)
    build.kind = kind
    return build


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
    return list_kind(elem_sort).build(*items)


def build_pair(first: Term, second: Term) -> Term:
    return pair_kind(first.sort, second.sort).build(first, second)


# ---------------------------------------------------------------------------
# Signatures

class Signature(Frozen):
    """A finite set of node kinds naming one language representation.

    Container kinds are implicit members of every signature and are not
    listed.  `_by_name` and `_containing` are lookup tables, outside
    repr, `==` and hash.
    """

    __slots__ = ("name", "kinds", "_by_name", "_containing")
    _compared = ("name", "kinds")

    def __init__(self, name: str, kinds: tuple[NodeKind, ...], _by_name: dict | None = None,
                 _containing: dict | None = None):
        Frozen.__init__(self, name, kinds, {} if _by_name is None else _by_name,
                        {} if _containing is None else _containing)
        seen = {}
        for k in kinds:
            if k.name in seen:
                raise ValueError(f"duplicate kind name {k.name!r} in {name}")
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

    def sorts_containing(self, target: Sort) -> frozenset:
        """The sorts whose terms can hold a node of sort `target`, itself
        included: a term of the signature of any other sort has no such
        node.  A kind's term holds its children, a list its elements and
        a pair its two halves.  Computed once per target."""
        found = self._containing.get(target)
        if found is None:
            holders: dict = {}  # sort -> the sorts whose terms hold it directly

            def held(holder: Sort, sort: Sort) -> None:
                holders.setdefault(sort, set()).add(holder)
                if isinstance(sort, ListOf):
                    held(sort, sort.elem)
                elif isinstance(sort, PairOf):
                    held(sort, sort.first)
                    held(sort, sort.second)

            for kind in self.kinds:
                for sort in kind.child_sorts:
                    held(kind.produced, sort)
            found = {target}
            todo = [target]
            while todo:
                for holder in holders.get(todo.pop(), ()):
                    if holder not in found:
                        found.add(holder)
                        todo.append(holder)
            found = self._containing[target] = frozenset(found)
        return found


def check_term(term: Term, signature: Signature | None = None) -> None:
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
# Folds and walks

# Marks a node's place on the fold's stack: its children's results are done.
_UP = object()


def fold(root, down, up):
    """root folded bottom-up on an explicit stack, so nesting takes no
    Python frames: a catamorphism (Meijer, Fokkinga & Paterson,
    "Functional Programming with Bananas, Lenses, Envelopes and Barbed
    Wire", 1991), written once for the walks that build a node's result
    from its children's.  `down(node)` checks node and returns the nodes
    below it to fold, in a tuple or list, or else node's result
    outright.  `up(node, results)` builds node's result from theirs, a
    list or ().  down runs in pre-order and up in post-order, as in a
    recursive walk, so a check raises where the recursive walk would.
    """
    todo = [root]
    pending: list = []  # the nodes whose children are being folded
    frames: list = [[]]  # per pending node, its children's results so far
    while todo:
        node = todo.pop()
        if node is _UP:
            results = frames.pop()
            frames[-1].append(up(pending.pop(), results))
            continue
        below = down(node)
        if below.__class__ is not tuple and below.__class__ is not list:
            frames[-1].append(below)
        elif below:
            pending.append(node)
            frames.append([])
            todo.append(_UP)
            todo.extend(reversed(below))
        else:
            frames[-1].append(up(node, ()))
    return frames[0][0]


def _sexpr(term: Term, children: list) -> str:
    parts = [term.kind.name]
    for ty, v in zip(term.kind.payloads, term.payload_values):
        if ty == "String":
            parts.append('"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"')
        elif ty == "Bool":
            parts.append("true" if v else "false")
        else:
            parts.append(str(v))
    parts += children
    return "(" + " ".join(parts) + ")"


def to_sexpr(term: Term) -> str:
    """Parenthesized dump `(KindName payload* child*)`, strings quoted: a
    fold."""
    return fold(term, attrgetter("children"), _sexpr)


def iter_subterms(term: Term) -> Iterator[Term]:
    """Pre-order iteration over all nodes of a term."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(t.children))
