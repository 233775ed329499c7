"""Sorted terms: the uniform tree representation all languages share.

A term is a node kind applied to primitive payloads and sorted children:
a named tuple of its kind, payloads, children and origin, made in one
allocation, that is a node and not a sequence (see Term).  Sorts are
runtime tags checked at construction time, so an ill-sorted tree
can never be built through this module's constructors.  Sorts and node
kinds are interned: building one equal to an existing one returns that
object, so their equality is identity and the sort check is an identity
test.  Each node kind gets one builder, `kind.build`, when it is first
interned, and each node is checked once, where it is built: a builder
raises what mk_term raises.  A kind of a shape that is written out (a
payload count, a child count and list-ness) gets a builder specialised
to its payload classes and child sorts, which tests the common case
inline and runs mk_term's checks only on a mismatch.  A shape is written
out when it makes at least 1 % of the nodes on both the transform-large
and the difftest-gen workloads; a kind of any other shape, such as a
for loop or a binary expression, gets one that runs mk_term's checks on
every node.  Code that knows the kind it builds calls its builder;
mk_term is for code that rebuilds a node of a kind it read from another
node.  List and pair values are embedded as ordinary terms via the
built-in container kinds, which exist at every element sort: a list is
one ListF node whose children, any number of them, are its elements; a
pair is a PairF node.

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
When the pause ends, everything that survived the call, the returned
trees included, moves to the oldest generation (`gc.freeze()` then
`gc.unfreeze()`, which walk nothing, and the young count restarts from
zero), so the caller's next allocation does not start a young
collection over the trees it keeps.  The move is
skipped while the caller has objects frozen, so that a caller's
permanent generation is never thawed.  Cyclic garbage that the caller
made and that was still young moves too, and waits for the next full
collection.  `difftest.diff_one` takes one plain pause over all of the
layers and its two runs, and moves nothing: it returns no tree, and the
cyclic garbage a run makes, bounded by its fuel, stays young for the
first young collection after it returns.  No result depends on the
pause or the move.  The collector is process-wide, so a call in one
thread may briefly pause collection for the others as well, and moves
their young objects along with its own.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cache, wraps

from .records import Frozen, Tree

# The primitive payload types, by name, and the Python class of each.
PRIM_TYPES = {"Int": int, "Bool": bool, "String": str}


def gc_paused(fn):
    """fn, run with the cyclic collector paused for the call.

    A call made while the collector is already off, as from an outer
    paused layer or by a caller that turned it off, leaves it as it is.
    Otherwise, when fn returns or raises, what survived the call is moved
    to the oldest generation, unless the caller has objects frozen
    (`gc.get_freeze_count()`), and the collector is turned back on.
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
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
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


# A Term's four fields, as a named tuple that offers no unchecked way to
# build or rebuild one (`_make`, `_replace`) and no `_asdict`.
_TermFields = namedtuple("_TermFields", "kind payload_values children origin",
                         defaults=(None,))
del _TermFields._make, _TermFields._replace, _TermFields._asdict


def _refused(what: str):
    def refuse(self, *other):
        raise TypeError(f"a Term has no {what}")
    return refuse


class Term(Tree, Frozen, _TermFields):
    """An immutable sorted tree node.  Build through a kind's builder, or
    through mk_term to rebuild a node of a kind read from another node.

    `origin` is the provenance described in the module docstring, or None
    for a node built otherwise, as a pass builds its nodes; it is outside
    repr, `==` and hash.

    A Term is a named tuple of its fields, so a builder makes one in a
    single allocation, `tuple.__new__(Term, fields)`, and each field reads
    straight from the tuple.  Otherwise it is a node and not a sequence:
    it equals only a Term of the same kind, payloads and children, never
    a plain tuple, and it has no order, length, items, sum or repeat.
    """

    __slots__ = ()
    __match_args__ = _TermFields.__match_args__
    _compared = ("kind", "payload_values", "children")
    __init__ = object.__init__  # the named tuple's __new__ sets the fields

    def __eq__(self, other):
        if other.__class__ is Term:
            return self._values(self) == self._values(other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = Frozen.__hash__  # defining __eq__ would set it to None
    __lt__ = __le__ = __gt__ = __ge__ = _refused("order")
    __len__ = _refused("len()")
    __iter__ = __contains__ = __getitem__ = _refused("items")
    __add__ = __radd__ = __mul__ = __rmul__ = _refused("sum or repeat")

    def __bool__(self):  # truth would call __len__
        return True

    @property
    def sort(self) -> Sort:
        return self.kind.produced


# A builder makes a Term in one call: _new(Term, (kind, payloads,
# children, origin)).  `origin` is set once, on the node just built.
_new = tuple.__new__


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
    return _new(Term, (kind, payloads, children, origin))


# The builders, one maker per shape written out: the payload count, the
# child count, and whether the kind is a list.  A shape is written out
# when it makes at least 1 % of the builder calls on both the
# transform-large and the difftest-gen workloads; over every op at seed
# 4242 the six below make 6.7-48.6 % each, and the next, (1, 2),
# 0.63-0.70 %.  A maker takes the kind, its payload classes P0... and its
# child sorts S0....  The inline test asks that each payload be of exactly
# its class and each child a Term of exactly its sort, and then the
# builder makes the Term in one call, `_new(Term, fields)`; anything else
# goes to _checked, which accepts what mk_term accepts.  `schema.walker`
# writes its shapes out the same way, by the same rule.

def _list_builder(kind, S0):
    def build(*args, origin=None):
        for c in args:
            if c.__class__ is not Term or c.kind.produced is not S0:
                return _checked(kind, (), args, origin)
        return _new(Term, (kind, (), args, origin))
    return build


def _builder_0_0(kind):
    def build(*args, origin=None):
        if not args:
            return _new(Term, (kind, (), (), origin))
        return _checked(kind, (), args, origin)
    return build


def _builder_0_1(kind, S0):
    def build(*args, origin=None):
        if len(args) == 1:
            c0, = args
            if c0.__class__ is Term and c0.kind.produced is S0:
                return _new(Term, (kind, (), args, origin))
        return _checked(kind, (), args, origin)
    return build


def _builder_0_2(kind, S0, S1):
    def build(*args, origin=None):
        if len(args) == 2:
            c0, c1 = args
            if (c0.__class__ is Term and c0.kind.produced is S0
                    and c1.__class__ is Term and c1.kind.produced is S1):
                return _new(Term, (kind, (), args, origin))
        return _checked(kind, (), args, origin)
    return build


def _builder_0_3(kind, S0, S1, S2):
    def build(*args, origin=None):
        if len(args) == 3:
            c0, c1, c2 = args
            if (c0.__class__ is Term and c0.kind.produced is S0
                    and c1.__class__ is Term and c1.kind.produced is S1
                    and c2.__class__ is Term and c2.kind.produced is S2):
                return _new(Term, (kind, (), args, origin))
        return _checked(kind, (), args, origin)
    return build


def _builder_1_0(kind, P0):
    def build(*args, origin=None):
        if len(args) == 1:
            p0, = args
            if p0.__class__ is P0:
                return _new(Term, (kind, (p0,), (), origin))
        return _checked(kind, args[:1], args[1:], origin)
    return build


def _any_shape_builder(kind):
    """The builder of a kind of a shape no maker has: every node takes
    mk_term's checks."""
    n = len(kind.payloads)

    def build(*args, origin=None):
        return _checked(kind, args[:n], args[n:], origin)
    return build


_MAKERS = {
    (0, 1, True): _list_builder,
    (0, 0, False): _builder_0_0,
    (0, 1, False): _builder_0_1,
    (0, 2, False): _builder_0_2,
    (0, 3, False): _builder_0_3,
    (1, 0, False): _builder_1_0,
}


def _builder(kind: NodeKind):
    """kind's builder: see NodeKind.  Its `kind` attribute is kind."""
    shape = (len(kind.payloads), len(kind.child_sorts), kind.name == "ListF")
    make = _MAKERS.get(shape)
    if make is None:
        build = _any_shape_builder(kind)
    else:
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
            # (holder, sort) pairs: a plain stack, not a nested function,
            # which would refer to itself through its closure and be a cycle
            edges = [(kind.produced, sort)
                     for kind in self.kinds for sort in kind.child_sorts]
            while edges:
                holder, sort = edges.pop()
                holders.setdefault(sort, set()).add(holder)
                if isinstance(sort, ListOf):
                    edges.append((sort, sort.elem))
                elif isinstance(sort, PairOf):
                    edges.append((sort, sort.first))
                    edges.append((sort, sort.second))
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


def iter_subterms(term: Term) -> Iterator[Term]:
    """Pre-order iteration over all nodes of a term."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(t.children))
