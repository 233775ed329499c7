"""Control-flow graphs, basic blocks, and the flow-directed inserter."""

import hashlib

import pytest

from helpers import COUNTF
from srctrans.flow import (
    BeforeStmt,
    InvalidPath,
    basic_blocks,
    block_graph,
    build_cfg,
    continue_sites,
    dump_dot,
    insert_at_back_edges,
    insert_many,
)
from srctrans.gen import GenConfig, gen_program
from srctrans.fragments import BLOCK
from srctrans.langs.base import ContinueView, block_items, get_language
from srctrans.terms import check_term, iter_subterms
from srctrans.traversal import get_at

ALL = ("minic", "minijs", "minilua")

# sha256 of the dot dumps of GenConfig seeds 0-29, one after another
DOT_PINNED = {
    "minic": "188a87f6fc9305037777e96348c1ba1ab25432db45114eea33a260be968635cf",
    "minijs": "ebf60e037273c232641e22ffa39df90330a192764ac05b948b039e1b7480eb0f",
    "minilua": "2af32825a05e8a3342c7eb1776807a2f791cc8fbdff98c3bcbaf7c15b8b004fe",
}


def cfg_of(lname, text):
    lang = get_language(lname)
    return lang, build_cfg(lang.decompose(lang.parse(text)), lang)


def test_straight_line_one_block():
    lang, cfg = cfg_of("minic", "int main() { int x = 1; print(x); return x; }")
    blocks = basic_blocks(cfg)
    assert len(blocks) == 1
    assert len(blocks[0].stmts) == 3
    # entry + exit + one node per statement
    assert len(cfg.nodes) == 5


def test_if_else_four_blocks():
    text = (
        "int main() { print(0); if (1 < 2) { print(1); } else { print(2); }"
        " return 0; }"
    )
    _, cfg = cfg_of("minic", text)
    blocks = basic_blocks(cfg)
    assert len(blocks) == 4  # entry run, then, else, join
    graph = block_graph(cfg, blocks)
    assert set(graph[0]) == {1, 2}
    assert graph[1] == (3,) and graph[2] == (3,)


def test_while_back_edge():
    _, cfg = cfg_of("minic", "int main() { int i = 3; while (i > 0) { i = i - 1; } return i; }")
    conds = [n for n in cfg.nodes if n[0] == "cond"]
    assert len(conds) == 1
    body_stmts = [n for n in cfg.stmt_order if len(n[2]) > 0]
    assert (body_stmts[-1], conds[0]) in cfg.edges  # body exit -> condition


def test_empty_body_single_block():
    lang, cfg = cfg_of("minijs", "function main() { }")
    blocks = basic_blocks(cfg)
    assert len(blocks) == 1
    assert blocks[0].stmts == ()
    assert blocks[0].leader == BeforeStmt(0, (), 0)


@pytest.mark.parametrize("lname", ALL)
def test_countf_five_blocks(lname):
    _, cfg = cfg_of(lname, COUNTF[lname])
    blocks = basic_blocks(cfg)
    assert [blk.id for blk in blocks] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("lname", ALL)
def test_block_partition_properties(lname):
    """Independent checks of blockhood: partition, straight-line, maximal."""
    lang = get_language(lname)
    for seed in range(25):
        term = lang.decompose(lang.parse(gen_program(lname, GenConfig(seed=seed))))
        cfg = build_cfg(term, lang)
        blocks = basic_blocks(cfg)
        seen = [n for blk in blocks for n in blk.stmts]
        assert sorted(seen, key=str) == sorted(cfg.stmt_order, key=str)
        assert len(seen) == len(set(seen))
        for blk in blocks:
            for a, b in zip(blk.stmts, blk.stmts[1:]):
                # interior edges are unique and direct
                assert cfg.succs[a] == (b,)
                assert cfg.preds[b] == (a,)


def test_ids_stable_and_dot_deterministic():
    lang, cfg = cfg_of("minijs", COUNTF["minijs"])
    d1 = dump_dot(cfg)
    _, cfg2 = cfg_of("minijs", COUNTF["minijs"])
    assert d1 == dump_dot(cfg2)
    assert d1.startswith("digraph cfg {\n")
    assert "->" in d1


_CONTINUE_LOOP = (
    "function main() { var c = 3; while (c > 0) {"
    " if (c == 2) { c = c - 2; continue; } c = c - 1; } return c; }"
)


def test_insert_at_back_edges_body_end_and_continue():
    lang = get_language("minijs")
    term = lang.decompose(lang.parse(_CONTINUE_LOOP))
    loop = block_items(get_at(term, lang.adapter.body_paths(term)[0]))[1]
    marker = lang.adapter.make_cov_marker(7)
    body = lang.adapter.item_view(insert_at_back_edges(loop, [marker], lang)).body
    # the body was [if, c = c - 1] and the then block [c = c - 2, continue]
    items = block_items(body)
    assert len(items) == 3 and items[2] == marker
    then = block_items(lang.adapter.item_view(items[0]).then)
    assert len(then) == 3 and then[1] == marker
    assert isinstance(lang.adapter.item_view(then[2]), ContinueView)


_SHORT_CIRCUIT_CONDITIONS = {
    "minic": (
        "int main() { int a = 1; int b = 0; if (a && (b || a)) { print(1); }"
        " while (a > 0 && (b < 1 || a < 0)) { a = a - 1; } return 0; }"
    ),
    "minijs": (
        "function main() { var a = 1; var b = 0; if (a && (b || a)) { print(1); }"
        " while (a > 0 && (b < 1 || a < 0)) { a = a - 1; } return 0; }"
    ),
    "minilua": (
        "local a = 1\nlocal b = 0\nif a and (b or a) then\n  print(1)\nend\n"
        "while a > 0 and (b < 1 or a < 0) do\n  a = a - 1\nend\n"
    ),
}


@pytest.mark.parametrize("lname", ALL)
def test_short_circuit_conditions_add_no_nodes(lname):
    _, cfg = cfg_of(lname, _SHORT_CIRCUIT_CONDITIONS[lname])
    assert {n[0] for n in cfg.nodes} == {"entry", "exit", "stmt", "cond"}


def test_continue_sites_in_source_order():
    lang = get_language("minijs")
    text = (
        "function main() { var c = 3; while (c > 0) {"
        " c = c - 1; if (c == 2) { continue; } else { { f(); continue; } }"
        " while (c > 5) { continue; } if (c == 1) { g(); continue; } continue; } }"
    )
    term = lang.decompose(lang.parse(text))
    loop = lang.adapter.item_view(block_items(get_at(term, lang.adapter.body_paths(term)[0]))[1])
    # the inner loop's continue is its own
    assert continue_sites(loop.body, lang) == [
        (((1, "then"),), 0),
        (((1, "orelse"), (0, "block")), 1),
        (((3, "then"),), 1),
        ((), 4),
    ]


def test_insert_into_missing_block_raises():
    lang = get_language("minic")
    term = lang.decompose(lang.parse("int main() { if (1) { print(1); } return 0; }"))
    marker = lang.adapter.make_cov_marker(0)
    assert insert_many(term, lang, [(BeforeStmt(0, ((0, "then"),), 0), [marker])]) != term
    with pytest.raises(InvalidPath, match="no such block"):
        insert_many(term, lang, [(BeforeStmt(0, ((0, "orelse"),), 0), [marker])])
    with pytest.raises(InvalidPath, match="index out of range"):
        insert_many(term, lang, [(BeforeStmt(0, ((0, "then"),), 2), [marker])])
    with pytest.raises(InvalidPath, match="no body"):
        insert_many(term, lang, [(BeforeStmt(1, (), 0), [marker])])
    with pytest.raises(InvalidPath, match="unknown insertion point"):
        insert_many(term, lang, [((0, (), 0), [marker])])


def test_insert_braces_minic_bare_bodies():
    lang = get_language("minic")
    text = "int main() { if (1) print(1); else print(2); return 0; }"
    term = lang.decompose(lang.parse(text))
    cfg = build_cfg(term, lang)
    blocks = basic_blocks(cfg)
    out = insert_many(
        term, lang,
        [(blk.leader, [lang.adapter.make_cov_marker(blk.id)]) for blk in blocks],
    )
    check_term(out, lang.ips)
    printed = lang.pretty(lang.recompose(out))
    assert lang.parse(printed) is not None
    assert printed.count("cov[") == len(blocks)


def test_insert_converts_minilua_elseif():
    lang = get_language("minilua")
    text = "if a then\n  print(1)\nelseif b then\n  print(2)\nelse\n  print(3)\nend\n"
    term = lang.decompose(lang.parse(text))
    cfg = build_cfg(term, lang)
    blocks = basic_blocks(cfg)
    out = insert_many(
        term, lang,
        [(blk.leader, [lang.adapter.make_cov_marker(blk.id)]) for blk in blocks],
    )
    check_term(out, lang.ips)
    printed = lang.pretty(lang.recompose(out))
    assert lang.parse(printed) is not None
    # one marker per block and the elseif arm now carries one too
    assert printed.count("TC.cov[") == len(blocks)


@pytest.mark.parametrize("shadowing", [False, True])
@pytest.mark.parametrize("lname", ALL)
def test_view_rebuild_round_trips(lname, shadowing):
    # every item whose view has parts, at any depth, comes back from its
    # view unchanged, whether no part or every sub-block is passed again
    lang = get_language(lname)
    compound = 0
    for seed in range(20):
        text = gen_program(lname, GenConfig(seed=seed, shadowing=shadowing))
        for t in iter_subterms(lang.decompose(lang.parse(text))):
            if t.kind is not BLOCK:
                continue
            for item in block_items(t):
                view = lang.adapter.item_view(item)
                if not view.FIELDS:
                    continue
                compound += 1
                assert view.rebuild() == item
                assert view.rebuild(**dict(view.blocks())) == item
    assert compound > 0
def _dot_dumps(lname: str) -> str:
    return "".join(
        dump_dot(cfg_of(lname, gen_program(lname, GenConfig(seed=s)))[1])
        for s in range(30)
    )


@pytest.mark.parametrize("lname", ALL)
def test_dot_dump_is_pinned(lname):
    assert hashlib.sha256(_dot_dumps(lname).encode()).hexdigest() == DOT_PINNED[lname]
