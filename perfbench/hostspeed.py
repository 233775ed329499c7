"""Host speed probe, to take other tenants' load out of the timings.

On a shared host the same work can take 50 % longer from one run to the
next.  CPU time shows the same slowdown as wall time, so it comes from
other tenants on the same cores.  The probe is a fixed pure-Python kernel
that the benchmark owns and srctrans never touches.  Timed next to the
measured work, it tells how fast the host is running at that moment, and
a timing is scaled by ``REFERENCE_PROBE_S / probe time`` to what the
reference host would have taken.

The probe walks a tree built once at import and allocates no object that
the garbage collector tracks, so no collection can start inside it: the
objects srctrans holds cannot make it slower.
"""

from __future__ import annotations

import time

# Median probe time on the reference host (2-core x86-64, Python 3.11.7).
# A fixed constant: changing it rescales every normalized figure.
REFERENCE_PROBE_S = 0.00025


class _Node:
    __slots__ = ("kind", "left", "right")

    def __init__(self, kind: int, left, right):
        self.kind = kind
        self.left = left
        self.right = right


def _build(depth: int) -> _Node:
    if depth == 0:
        return _Node(0, None, None)
    return _Node(depth, _build(depth - 1), _build(depth - 1))


def _walk(node: _Node) -> int:
    # attribute loads and calls only: no iterator or container is allocated
    if node.left is None:
        return node.kind
    return node.kind + _walk(node.left) + _walk(node.right)


_TREE = _build(11)


def probe() -> float:
    """Seconds taken to walk a 4095-node tree, the kind of pointer-chasing
    work that srctrans does with its terms.

    This module imports nothing but `time`, so a fresh interpreter can
    load it before timing srctrans's imports without importing anything
    for them.
    """
    t0 = time.perf_counter()
    _walk(_TREE)
    return time.perf_counter() - t0


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def factors(probes: list[float], window: int = 4) -> list[float]:
    """Host slowdown around each gap between probes.

    probes[i] is taken just before op i and probes[-1] after the last op;
    op i's factor is the median probe in a window around it, over the
    reference probe time.
    """
    return [
        median(probes[max(0, i - window): i + window + 2]) / REFERENCE_PROBE_S
        for i in range(len(probes) - 1)
    ]
