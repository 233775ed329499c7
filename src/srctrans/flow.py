"""Control-flow graphs over genericized terms and flow-directed insertion.

The graph is statement-level: one node per block item, with an extra
expression-level node only for each loop condition.  Items are addressed
by view paths: alternating (item index, slot) steps through the
structural views an adapter exposes, where a slot is the name of a view
part that holds a sub-block (`ItemView.BLOCKS`), so positions survive
frontends that synthesize blocks around bare statement bodies.

Insertion has two paths: `insert_many` puts statements before an item of
a block, at `BeforeStmt` points such as the basic block leaders, and
`insert_at_back_edges` puts them on a loop's back edges.  Both rebuild
every touched block through the views, which lets a frontend brace a
body exactly when it stops being a single statement.

CFGs are immutable snapshots of one term value; any rewrite invalidates
them and callers must rebuild.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import is_
from typing import Optional

from .langs.base import (
    BreakView,
    ContinueView,
    ForView,
    LanguageDef,
    LoopView,
    ReturnView,
    UnrepresentableTerm,
    block_items,
    with_block_items,
)
from .terms import Term, gc_paused
from .traversal import get_at, replace_at

# A block is addressed by a tuple of (item index, slot) pairs descending
# from a body root; a slot names the view part that holds the block.
BlockPath = tuple
NodeId = tuple


class InvalidPath(Exception):
    pass


@dataclass(frozen=True)
class BeforeStmt:
    """Insert immediately before the item at `index` of a block; index 0
    is the start of the block, and the block's length its end."""

    body: int
    block: BlockPath
    index: int


# ---------------------------------------------------------------------------
# Graph construction


@dataclass(frozen=True)
class BasicBlock:
    """Maximal straight-line run of statement nodes."""

    id: int
    body: int
    stmts: tuple
    leader: BeforeStmt


class CFG:
    """Immutable control-flow snapshot of one term."""

    def __init__(self, bodies, nodes, edges, stmt_order):
        self.bodies = tuple(bodies)
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.stmt_order = tuple(stmt_order)
        self.succs: dict[NodeId, tuple] = {n: () for n in self.nodes}
        self.preds: dict[NodeId, tuple] = {n: () for n in self.nodes}
        for a, b in self.edges:
            self.succs[a] += (b,)
            self.preds[b] += (a,)


class _Ctx:
    """Per-loop targets while walking a body."""

    def __init__(self, cont_target: Optional[NodeId], breaks: Optional[list]):
        self.cont_target = cont_target
        self.breaks = breaks


class _Builder:
    def __init__(self, lang: LanguageDef):
        self.lang = lang
        self.nodes: list[NodeId] = []
        self.edges: list[tuple] = []
        self.stmt_order: list[NodeId] = []

    def add(self, node: NodeId) -> NodeId:
        self.nodes.append(node)
        if node[0] == "stmt":
            self.stmt_order.append(node)
        return node

    def link(self, frontier, node: NodeId) -> None:
        for src in frontier:
            self.edges.append((src, node))

    def body(self, b: int, block: Term) -> None:
        entry = self.add(("entry", b))
        exit_ = self.add(("exit", b))
        frontier = self.walk_block(block, b, (), [entry], _Ctx(None, None), exit_)
        self.link(frontier, exit_)

    def walk_block(self, block, b, bpath, frontier, ctx, exit_):
        for i, item in enumerate(block_items(block)):
            node = self.add(("stmt", b, bpath, i))
            self.link(frontier, node)
            view = self.lang.adapter.item_view(item)
            frontier = self.after_item(view, node, b, bpath, i, ctx, exit_)
        return frontier

    def after_item(self, view, node, b, bpath, i, ctx, exit_):
        if isinstance(view, ReturnView):
            self.edges.append((node, exit_))
            return []
        if isinstance(view, BreakView):
            if ctx.breaks is None:
                raise UnrepresentableTerm("break outside a loop")
            ctx.breaks.append(node)
            return []
        if isinstance(view, ContinueView):
            if ctx.cont_target is None:
                raise UnrepresentableTerm("continue outside a loop")
            self.edges.append((node, ctx.cont_target))
            return []
        if isinstance(view, LoopView):
            cond_node = self.add(("cond", b, bpath, i))
            self.edges.append((node, cond_node))
            breaks: list = []
            inner = _Ctx(cond_node, breaks)
            (slot, body), = view.blocks()
            bf = self.walk_block(
                body, b, bpath + ((i, slot),), [cond_node], inner, exit_
            )
            self.link(bf, cond_node)
            falls_out = not (isinstance(view, ForView) and view.cond is None)
            return ([cond_node] if falls_out else []) + breaks
        if not view.BLOCKS:
            return [node]
        # an if or a nested block: each sub-block runs from the item, and
        # an absent one (no else) lets control pass the item itself
        subs = view.blocks()
        frontier = []
        for slot, sub in subs:
            frontier += self.walk_block(
                sub, b, bpath + ((i, slot),), [node], ctx, exit_
            )
        if len(subs) < len(view.BLOCKS):
            frontier.append(node)
        return frontier


@gc_paused
def build_cfg(term: Term, lang: LanguageDef) -> CFG:
    """The CFG of the generic body Blocks of term, in source order."""
    builder = _Builder(lang)
    bodies = [get_at(term, p) for p in lang.adapter.body_paths(term)]
    for b, block in enumerate(bodies):
        builder.body(b, block)
    return CFG(bodies, builder.nodes, builder.edges, builder.stmt_order)


def basic_blocks(cfg: CFG) -> list[BasicBlock]:
    """Partition statement nodes into maximal straight-line runs.

    Ids are dense, assigned in pre-order of block leaders across bodies;
    an empty body still contributes one (empty) block.
    """
    blocks: list[BasicBlock] = []
    per_body: dict[int, list] = {b: [] for b in range(len(cfg.bodies))}
    for n in cfg.stmt_order:
        per_body[n[1]].append(n)
    for b in range(len(cfg.bodies)):
        stmts = per_body[b]
        if not stmts:
            blocks.append(BasicBlock(len(blocks), b, (), BeforeStmt(b, (), 0)))
            continue
        current: list = []
        for n in stmts:
            if current and not _is_leader(cfg, n):
                current.append(n)
                continue
            if current:
                blocks.append(_close(blocks, b, current))
            current = [n]
        blocks.append(_close(blocks, b, current))
    return blocks


def _close(blocks: list, b: int, stmts: list) -> BasicBlock:
    _, _, bpath, index = stmts[0]
    return BasicBlock(len(blocks), b, tuple(stmts), BeforeStmt(b, bpath, index))


def _is_leader(cfg: CFG, node: NodeId) -> bool:
    preds = cfg.preds[node]
    if len(preds) != 1:
        return True
    p = preds[0]
    if p[0] != "stmt":
        return True
    return len(cfg.succs[p]) > 1


def block_graph(cfg: CFG, blocks: list[BasicBlock]) -> dict[int, tuple]:
    """Successor block ids per id of blocks, the basic blocks of cfg,
    contracting non-statement nodes."""
    of_stmt = {n: blk.id for blk in blocks for n in blk.stmts}
    out: dict[int, tuple] = {}
    for blk in blocks:
        if not blk.stmts:
            out[blk.id] = ()
            continue
        # breadth-first from the block's last statement, stopping at
        # statements; the successors are listed in the order found
        found: dict[int, None] = {}
        seen = set()
        frontier = deque(cfg.succs[blk.stmts[-1]])
        while frontier:
            n = frontier.popleft()
            if n in seen:
                continue
            seen.add(n)
            if n[0] == "stmt":
                found[of_stmt[n]] = None
                continue
            frontier.extend(cfg.succs[n])
        out[blk.id] = tuple(found)
    return out


@gc_paused
def dump_dot(cfg: CFG) -> str:
    """Deterministic graph text: one node and one edge per line."""
    blocks = basic_blocks(cfg)
    graph = block_graph(cfg, blocks)
    lines = ["digraph cfg {"]
    for blk in blocks:
        lines.append(f'  n{blk.id} [label="body{blk.body} stmts={len(blk.stmts)}"]')
    for blk in blocks:
        for succ in graph[blk.id]:
            lines.append(f"  n{blk.id} -> n{succ}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Insertion


def _insert_into_body(block: Term, lang: LanguageDef, edits: dict) -> Term:
    """Apply {block path: {index: [items]}} edits under one body root."""
    reached: set = set()
    changed = _insert_into_block(block, (), lang, edits, reached)
    missing = edits.keys() - reached
    if missing:
        raise InvalidPath(f"no such block: {min(missing)}")
    return changed


def _insert_into_block(blk: Term, bpath: BlockPath, lang: LanguageDef,
                       edits: dict, reached: set) -> Term:
    """blk, at bpath, with the edits at and below it applied; adds the
    path of each block it walks to reached."""
    reached.add(bpath)
    items = block_items(blk)
    new_items = list(items)
    for i, item in enumerate(items):
        view = lang.adapter.item_view(item)
        if not view.BLOCKS:
            continue
        replaced = {}
        for slot, sub in view.blocks():
            sub2 = _insert_into_block(sub, bpath + ((i, slot),), lang, edits, reached)
            if sub2 is not sub:
                replaced[slot] = sub2
        if replaced:
            new_items[i] = view.rebuild(**replaced)
    here = edits.get(bpath)
    if here is None and all(map(is_, new_items, items)):
        return blk
    if here:
        if any(idx < 0 or idx > len(items) for idx in here):
            raise InvalidPath(f"index out of range in block {bpath}")
        out: list[Term] = []
        for i, item in enumerate(new_items):
            out.extend(here.get(i, ()))
            out.append(item)
        out.extend(here.get(len(new_items), ()))
        new_items = out
    return with_block_items(blk, new_items)


def continue_sites(body: Term, lang: LanguageDef) -> list[tuple]:
    """(block path, index) of each continue targeting the enclosing loop,
    in source order.

    Nested loops capture their own continues and are not descended into.
    """
    out: list[tuple] = []
    # Each entry is a block to scan, as (block, path), or a continue
    # found, as (None, (path, index)); a block's entries are pushed in
    # reverse, so they pop in source order.
    stack = [(body, ())]
    while stack:
        blk, bpath = stack.pop()
        if blk is None:
            out.append(bpath)
            continue
        found = []
        for i, item in enumerate(block_items(blk)):
            view = lang.adapter.item_view(item)
            if isinstance(view, ContinueView):
                found.append((None, (bpath, i)))
            elif not isinstance(view, LoopView):
                for slot, sub in view.blocks():
                    found.append((sub, bpath + ((i, slot),)))
        stack.extend(reversed(found))
    return out


def _back_edges(body: Term, lang: LanguageDef) -> list[tuple]:
    """(block path, index) under a loop's body of each place control
    passes back to the loop's condition: the body end, then each continue
    of that loop."""
    return [((), len(block_items(body)))] + continue_sites(body, lang)


def insert_at_back_edges(item: Term, stmts: list, lang: LanguageDef) -> Term:
    """The loop item with stmts at the end of its body and before each
    continue of that loop."""
    view = lang.adapter.item_view(item)
    (slot, body), = view.blocks()
    edits: dict = {}
    for bpath, idx in _back_edges(body, lang):
        edits.setdefault(bpath, {})[idx] = stmts
    return view.rebuild(**{slot: _insert_into_body(body, lang, edits)})


def insert_many(term: Term, lang: LanguageDef, requests: list) -> Term:
    """Apply many (BeforeStmt, [block items]) insertions in one pass.

    Positions refer to the input term; within one block, items land before
    the original index in request order.
    """
    per_body: dict[int, dict] = {}
    for point, stmts in requests:
        if not isinstance(point, BeforeStmt):
            raise InvalidPath(f"unknown insertion point {point!r}")
        edits = per_body.setdefault(point.body, {}).setdefault(point.block, {})
        edits.setdefault(point.index, []).extend(stmts)
    def insert(b: int, body: Term, before: Term) -> Term:
        edits = per_body.pop(b, None)
        return body if edits is None else _insert_into_body(body, lang, edits)

    out = rewrite_bodies(term, lang, insert)
    if per_body:
        raise InvalidPath(f"no body {min(per_body)}")
    return out


def rewrite_bodies(term: Term, lang: LanguageDef, rewrite) -> Term:
    """term with each routine body replaced by rewrite(b, body, before),
    where b numbers the bodies in source order, body is routine b's body
    with the bodies nested in it already rewritten, and before is the
    body as term has it; a rewrite may return body.

    The bodies are rewritten from last to first.  A body nested in
    another comes after it in source order, so no rewrite moves a body
    still to be rewritten, and one scan for the paths serves them all.
    """
    paths = lang.adapter.body_paths(term)
    out = term
    for b in reversed(range(len(paths))):
        path = paths[b]
        body = get_at(out, path)
        new = rewrite(b, body, get_at(term, path))
        if new is not body:
            out = replace_at(out, path, new)
    return out
