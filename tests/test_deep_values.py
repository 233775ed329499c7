"""Pretty and recompose take no Python frame per nesting level.

Each input here nests one statement shape DEPTH levels deep, well past
the default recursion limit: MiniC's braced ifs and bare-body ifs,
MiniJS's nested blocks, MiniLua's `do ... end` blocks and a MiniLua
elseif tail.  Each is built bottom-up in a loop, as a value for
`lang.pretty` and as an IPS term with no origins, from the frontend's
builders, for `lang.recompose`, so no recursive walk makes it.  The
recursive printers took 2-4 frames per level and the recursive reader
3-4, so each cell failed with `RecursionError`.

Recompose runs at DEPTH.  An indented shape prints lines whose total
length grows with the square of the depth, 2 * n**2 bytes or about
200 MB at DEPTH, so those shapes print at PRINTED_DEPTH, which is still
three times the recursion limit; the elseif tail prints flat, at DEPTH.

Deep values are compared with `==`, which GenericValue runs on an
explicit stack (`tests/test_schema.py` checks it at 10,000 levels).

`copy.deepcopy` and `pickle` of a deep value or term go through
`records.Tree`'s flat `__reduce__`, so they work at PRINTED_DEPTH, and on
the parse and the decompose of `helpers.nested_ifs` in each language,
whose terms hold their values as origins.
"""

import copy
import pickle
import sys

import pytest

from helpers import nested_ifs, to_sexpr, without_origin
from srctrans.fragments import ident
from srctrans.langs import minic, minijs, minilua
from srctrans.langs.base import generic_block, get_language
from srctrans.schema import GV, GenericValue
from srctrans.terms import build_list

DEPTH = 10_000
PRINTED_DEPTH = 3_000


def _lines(head: list, nest: list, leaf: str, close: list, foot: list) -> str:
    return "\n".join(head + nest + [leaf] + close + foot) + "\n"


# Each shape: n -> (language name, value, IPS term, printed text).

def minic_braced_ifs(n: int):
    C, item = minic.C, minic.STMT_IS_ITEM.build
    v = GV("ReturnStmt", (GV("SomeExpr", (GV("IntLit", (0,)),)),))
    t = C.ReturnStmt(C.SomeExpr(C.IntLit(0)))
    for _ in range(n):
        block = GV("BlockStmt", (GV("Block", ((GV("StmtItem", (v,)),),)),))
        v = GV("IfStmt", (GV("BoolLit", (True,)), block, GV("NoElse")))
        body = C.BlockStmt(minic.BLOCK_IS_MINIC.build(generic_block([item(t)])))
        t = C.IfStmt(C.BoolLit(True), body, C.NoElse())
    return "minic", *_minic_main(v, t), _lines(
        ["int main() {"], ["  " * d + "if (true) {" for d in range(1, n + 1)],
        "  " * (n + 1) + "return 0;", ["  " * d + "}" for d in range(n, 0, -1)], ["}"],
    )


def minic_bare_ifs(n: int):
    C = minic.C
    v = GV("ReturnStmt", (GV("SomeExpr", (GV("IntLit", (0,)),)),))
    t = C.ReturnStmt(C.SomeExpr(C.IntLit(0)))
    for _ in range(n):
        v = GV("IfStmt", (GV("BoolLit", (True,)), v, GV("NoElse")))
        t = C.IfStmt(C.BoolLit(True), t, C.NoElse())
    return "minic", *_minic_main(v, t), _lines(
        ["int main() {"], ["  " * d + "if (true)" for d in range(1, n + 1)],
        "  " * (n + 1) + "return 0;", [], ["}"],
    )


def _minic_main(stmt: GenericValue, term):
    C, S = minic.C, minic.S
    block = GV("Block", ((GV("StmtItem", (stmt,)),),))
    value = GV("Program", ((GV("FuncDef", (GV("TInt"), GV("Ident", ("main",)), (), block)),),))
    body = minic.BLOCK_IS_MINIC.build(generic_block([minic.STMT_IS_ITEM.build(term)]))
    func = C.FuncDef(C.TInt(), minic.IDENT_IS_MINIC.build(ident("main")),
                     build_list(S("Param"), []), body)
    return value, C.Program(build_list(S("FuncDef"), [func]))


def minijs_nested_blocks(n: int):
    C, S = minijs.C, minijs.S

    def block_term(stmt):
        stmts = minijs.BLOCK_IS_STMTS.build(generic_block([minijs.STMT_IS_ITEM.build(stmt)]))
        return C.Block(build_list(S("Directive"), []), stmts)

    v = GV("ReturnStmt", (GV("SomeExpr", (GV("NumLit", (0,)),)),))
    t = C.ReturnStmt(C.SomeExpr(C.NumLit(0)))
    for _ in range(n):
        v = GV("BlockStmt", (GV("Block", ((), GV("Stmts", ((v,),)))),))
        t = C.BlockStmt(block_term(t))
    func = GV("FuncDef", (GV("Ident", ("main",)), (), GV("Block", ((), GV("Stmts", ((v,),))))))
    term = C.Program(build_list(S("FuncDef"), [C.FuncDef(
        minijs.IDENT_IS_MINIJS.build(ident("main")), build_list(S("Ident"), []), block_term(t)
    )]))
    return "minijs", GV("Program", ((func,),)), term, _lines(
        ["function main() {"], ["  " * d + "{" for d in range(1, n + 1)],
        "  " * (n + 1) + "return 0;", ["  " * d + "}" for d in range(n, 0, -1)], ["}"],
    )


def _minilua_block(stmt) -> object:
    return minilua.BLOCK_IS_MINILUA.build(generic_block([minilua.STMT_IS_ITEM.build(stmt)]))


def _minilua_chunk(stmt: GenericValue, term):
    value = GV("Chunk", (GV("Block", ((stmt,),)),))
    return value, minilua.C.Chunk(_minilua_block(term))


def minilua_do_blocks(n: int):
    C = minilua.C
    v = GV("ReturnStmt", (GV("SomeRet", (GV("NumLit", (0,)),)),))
    t = C.ReturnStmt(C.SomeRet(C.NumLit(0)))
    for _ in range(n):
        v = GV("DoStmt", (GV("Block", ((v,),)),))
        t = C.DoStmt(_minilua_block(t))
    return "minilua", *_minilua_chunk(v, t), _lines(
        [], ["  " * d + "do" for d in range(n)], "  " * n + "return 0",
        ["  " * d + "end" for d in range(n - 1, -1, -1)], [],
    )


def minilua_elseif_tail(n: int):
    C = minilua.C
    ret = GV("ReturnStmt", (GV("SomeRet", (GV("NumLit", (0,)),)),))
    ret_t = C.ReturnStmt(C.SomeRet(C.NumLit(0)))
    v = GV("Else", (GV("Block", ((ret,),)),))
    t = C.Else(_minilua_block(ret_t))
    for _ in range(n):
        v = GV("ElseIf", (GV("BoolLit", (True,)), GV("Block", ((ret,),)), v))
        t = C.ElseIf(C.BoolLit(True), _minilua_block(ret_t), t)
    v = GV("IfStmt", (GV("BoolLit", (True,)), GV("Block", ((ret,),)), v))
    t = C.IfStmt(C.BoolLit(True), _minilua_block(ret_t), t)
    arms = ["if true then"] + ["elseif true then"] * n + ["else"]
    text = "".join(f"{arm}\n  return 0\n" for arm in arms) + "end\n"
    return "minilua", *_minilua_chunk(v, t), text


SHAPES = [minic_braced_ifs, minic_bare_ifs, minijs_nested_blocks, minilua_do_blocks,
          minilua_elseif_tail]
FLAT = {minilua_elseif_tail}


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.__name__)
def test_the_builders_give_what_parse_and_decompose_give(shape):
    lname, value, term, text = shape(3)
    lang = get_language(lname)
    assert lang.parse(text) == value
    assert without_origin(lang.decompose(value)) == term
    assert lang.pretty(value) == text
    assert lang.recompose(term) == value


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.__name__)
def test_deep_values_pretty_and_recompose(shape):
    assert DEPTH > PRINTED_DEPTH > 2 * sys.getrecursionlimit()
    lname, value, term, _ = shape(DEPTH)
    lang = get_language(lname)
    assert lang.recompose(term) == value
    if shape not in FLAT:
        lname, value, _, text = shape(PRINTED_DEPTH)
    else:
        text = shape(DEPTH)[3]
    assert lang.pretty(value) == text


def _copies(obj) -> list:
    return [copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.__name__)
def test_deep_values_copy_and_pickle(shape):
    lname, value, term, _ = shape(PRINTED_DEPTH)
    lang = get_language(lname)
    for copied in _copies(value):
        assert copied == value and copied is not value
    for copied in _copies(term):
        assert lang.recompose(copied) == value


@pytest.mark.parametrize("lname", ["minic", "minijs", "minilua"])
def test_deep_parses_and_decomposes_copy_and_pickle(lname):
    """150 nested ifs, which made both raise `RecursionError`; a
    decomposed term keeps each node's origin."""
    lang = get_language(lname)
    value = lang.parse(nested_ifs(lname, 150))
    term = lang.decompose(value)
    for copied in _copies(value):
        assert copied == value
    for copied in _copies(term):
        assert to_sexpr(copied) == to_sexpr(term)
        assert copied.origin == value and lang.recompose(copied) == value


def test_a_part_that_occurs_twice_is_copied_once():
    leaf = GV("IntLit", (1,))
    value = GV("BinE", ("+", leaf, leaf))
    for copied in [*_copies(value), copy.copy(value)]:
        assert copied == value and copied.args[1] is copied.args[2]
    assert copy.copy(value).args is value.args
