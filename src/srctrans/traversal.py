"""Strategy combinators: generic rewriting over sorted terms, and paths.

A rewrite is a partial function Term -> Term | None; None signals "did not
fire".  When a rewrite fires it must preserve the sort of its input, which
the traversal checks.  A query reads `terms.iter_subterms`, the pre-order
walk over a term's nodes.
"""

from __future__ import annotations

from operator import is_
from typing import Callable, Optional

from .terms import Term, mk_term, sort_name

Rewrite = Callable[[Term], Optional[Term]]


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
    """Apply r at every node, children first; non-firing nodes pass through.

    The walk keeps an explicit stack, so deep nesting does not deepen
    the Python stack.  A stack entry is a term to visit or, as a 1-tuple,
    a term whose rewritten children are the last results.
    """
    results: list[Term] = []
    todo: list = [t]
    while todo:
        node = todo.pop()
        if node.__class__ is Term:
            if node.children:
                todo.append((node,))
                todo.extend(reversed(node.children))
                continue
        else:
            node = node[0]
            n = len(node.children)
            children = results[-n:]
            del results[-n:]
            if not all(map(is_, children, node.children)):
                node = mk_term(node.kind, node.payload_values, children)
        out = _apply(r, node)
        results.append(node if out is None else out)
    return results[0]


# ---------------------------------------------------------------------------
# Term paths: addresses of subterms, used by the flow module.

Path = tuple[int, ...]


def get_at(t: Term, path: Path) -> Term:
    for i in path:
        t = t.children[i]
    return t


def replace_at(t: Term, path: Path, new: Term) -> Term:
    spine = []
    for i in path:
        spine.append(t)
        t = t.children[i]
    for parent, i in zip(reversed(spine), reversed(path)):
        children = parent.children
        new = mk_term(parent.kind, parent.payload_values,
                      children[:i] + (new,) + children[i + 1:])
    return new
