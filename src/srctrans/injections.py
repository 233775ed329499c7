"""Sort injections: declared embeddings of one sort's terms at another sort.

An injection is realized by a chain of wrapper kinds, innermost first.
Each wrapper kind has no payloads and exactly one child, which holds the
term the chain carries so far.  Projection deterministically unwraps the
same chain, returning None at the first wrapper of another kind.  A sort
pair has at most one edge, declared or derived.
"""

from __future__ import annotations

from .records import Frozen, Record
from .terms import NodeKind, Signature, Sort, Term, sort_name


class InjectionError(Exception):
    pass


class IllTypedPath(InjectionError):
    pass


class DuplicateInjection(InjectionError):
    pass


class NoInjection(InjectionError):
    pass


class MissingEdge(InjectionError):
    pass


class InjectionDecl(Frozen):
    __slots__ = ("from_sort", "to_sort", "path", "derived")

    def __init__(self, from_sort: Sort, to_sort: Sort, path: tuple[NodeKind, ...],
                 derived: bool = False):  # path: innermost first
        Frozen.__init__(self, from_sort, to_sort, path, derived)


def _check_path(decl: InjectionDecl, signature: Signature | None) -> None:
    current = decl.from_sort
    for kind in decl.path:
        if signature is not None and not signature.contains(kind):
            raise IllTypedPath(f"kind {kind.name} not in signature")
        if kind.payloads or len(kind.child_sorts) != 1:
            raise IllTypedPath(f"{kind.name}: not a one-child kind without payloads")
        if kind.child_sorts[0] != current:
            raise IllTypedPath(
                f"{kind.name} child 0 expects {sort_name(kind.child_sorts[0])}, "
                f"chain carries {sort_name(current)}"
            )
        current = kind.produced
    if current != decl.to_sort:
        raise IllTypedPath(
            f"chain produces {sort_name(current)}, declared {sort_name(decl.to_sort)}"
        )


class InjectionTable(Record):
    """Per-language registry of sort injections, immutable once built."""

    __slots__ = ("signature", "_edges")

    def __init__(self, signature: Signature | None = None,
                 _edges: dict[tuple[Sort, Sort], InjectionDecl] | None = None):
        Record.__init__(self, signature, {} if _edges is None else _edges)

    def declare(self, decl: InjectionDecl) -> None:
        if self.has(decl.from_sort, decl.to_sort):
            raise DuplicateInjection(
                f"{sort_name(decl.from_sort)} -> {sort_name(decl.to_sort)} "
                "already declared"
            )
        _check_path(decl, self.signature)
        self._edges[(decl.from_sort, decl.to_sort)] = decl

    def lookup(self, from_sort: Sort, to_sort: Sort) -> InjectionDecl:
        try:
            return self._edges[(from_sort, to_sort)]
        except KeyError:
            raise NoInjection(
                f"no injection {sort_name(from_sort)} -> {sort_name(to_sort)}"
            ) from None

    def has(self, from_sort: Sort, to_sort: Sort) -> bool:
        return (from_sort, to_sort) in self._edges

    def edges(self) -> list[InjectionDecl]:
        return [self._edges[k] for k in sorted(self._edges, key=_edge_key)]

    def inj(self, term: Term, target: Sort) -> Term:
        """Embed term at the target sort through the registered chain."""
        if term.sort == target and not self.has(term.sort, target):
            return term
        out = term
        for kind in self.lookup(term.sort, target).path:
            out = kind.build(out)
        return out

    def proj(self, term: Term, source: Sort) -> Term | None:
        """Recover an embedded term of the source sort, or None."""
        out = term
        for kind in reversed(self.lookup(source, term.sort).path):
            if out.kind != kind:
                return None
            out = out.children[0]
        return out

    def compose(self, a: Sort, b: Sort, c: Sort) -> None:
        """Register the derived edge a -> c from a -> b and b -> c."""
        if not self.has(a, b) or not self.has(b, c):
            raise MissingEdge(
                f"compose needs {sort_name(a)} -> {sort_name(b)} and "
                f"{sort_name(b)} -> {sort_name(c)}"
            )
        path = self.lookup(a, b).path + self.lookup(b, c).path
        self.declare(InjectionDecl(a, c, path, derived=True))

    def dump(self) -> str:
        lines = []
        for decl in self.edges():
            chain = " -> ".join(f"{kind.name}[0]" for kind in decl.path)
            tag = " (derived)" if decl.derived else ""
            lines.append(
                f"{sort_name(decl.from_sort)} => {sort_name(decl.to_sort)}: "
                f"{chain}{tag}"
            )
        return "\n".join(lines) + "\n"


def _edge_key(key: tuple[Sort, Sort]) -> tuple[str, str]:
    return sort_name(key[0]), sort_name(key[1])
