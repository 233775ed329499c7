"""Strategy combinators: generic rewriting and queries over sorted terms.

A rewrite is a partial function Term -> Term | None; None signals "did not
fire".  When a rewrite fires it must preserve the sort of its input, which
the traversal checks.
"""

from __future__ import annotations

from operator import is_
from typing import Callable, Optional, TypeVar

from .terms import Term, mk_term, sort_name

Rewrite = Callable[[Term], Optional[Term]]
A = TypeVar("A")
Query = Callable[[Term], list]


class SortViolation(Exception):
    pass


def _apply(r: Rewrite, t: Term) -> Optional[Term]:
    out = r(t)
    if out is not None and out.sort != t.sort:
        raise SortViolation(
            f"rewrite changed sort {sort_name(t.sort)} -> {sort_name(out.sort)}"
        )
    return out


def transform_bottom_up(r: Rewrite, t: Term) -> Term:
    """Apply r at every node, children first; non-firing nodes pass through."""
    children = [transform_bottom_up(r, c) for c in t.children]
    if not all(map(is_, children, t.children)):
        t = mk_term(t.kind, t.payload_values, children)
    out = _apply(r, t)
    return t if out is None else out


def query_collect(q: Query, t: Term) -> list:
    """Concatenate q over all nodes in pre-order."""
    out = list(q(t))
    for c in t.children:
        out.extend(query_collect(q, c))
    return out


def try_(r: Rewrite) -> Rewrite:
    """Like r, but fall back to the unchanged term instead of not firing."""

    def go(t: Term) -> Optional[Term]:
        out = _apply(r, t)
        return t if out is None else out

    return go


def seq(r1: Rewrite, r2: Rewrite) -> Rewrite:
    """Apply r1 then r2; fires if either component fires."""

    def go(t: Term) -> Optional[Term]:
        mid = _apply(r1, t)
        out = _apply(r2, mid if mid is not None else t)
        if out is not None:
            return out
        return mid

    return go


def once_top_down(r: Rewrite) -> Rewrite:
    """Fire r at the first applicable node in pre-order, and nowhere else."""

    def go(t: Term) -> Optional[Term]:
        out = _apply(r, t)
        if out is not None:
            return out
        for i, c in enumerate(t.children):
            new_c = go(c)
            if new_c is not None:
                children = t.children[:i] + (new_c,) + t.children[i + 1:]
                return mk_term(t.kind, t.payload_values, children)
        return None

    return go


def all_children(r: Rewrite) -> Rewrite:
    """Apply r to each immediate child; fires if any child fires."""

    def go(t: Term) -> Optional[Term]:
        changed = False
        children = []
        for c in t.children:
            out = _apply(r, c)
            if out is None:
                children.append(c)
            else:
                children.append(out)
                changed = True
        if not changed:
            return None
        return mk_term(t.kind, t.payload_values, tuple(children))

    return go


# ---------------------------------------------------------------------------
# Term paths: addresses of subterms, used by the flow module.

Path = tuple[int, ...]


def get_at(t: Term, path: Path) -> Term:
    for i in path:
        t = t.children[i]
    return t


def replace_at(t: Term, path: Path, new: Term) -> Term:
    if not path:
        return new
    i = path[0]
    child = replace_at(t.children[i], path[1:], new)
    return mk_term(t.kind, t.payload_values, t.children[:i] + (child,) + t.children[i + 1:])
