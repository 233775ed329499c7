"""Statements nested deep (ROADMAP items 3 and 4).

`ident` on a program whose print sits inside n nested `if` blocks must
give `Equal`.  Each cell here failed with `TransformError RecursionError`
when decompose built the modular tree and then rebuilt it: the codecs of
`to_modular` took 10 (MiniC), 8 (MiniJS) and 6 (MiniLua) Python frames
per nesting level.  The one walk of decompose takes 5, 4 and 3.  MiniC
fails in its parser from 200 levels on.

`testcov` and `tac` rebuild every nested block, so recompose walks them
all.  Their cells failed with `TransformError RecursionError` when
recompose built a surface modular tree and then decoded it, from 100
(MiniC), 150 (MiniJS) and 200 (MiniLua) levels on; the one recursive
walk of recompose then took 4, 4 and 3 frames per level, and recompose
is now a fold on an explicit stack, which takes none.  MiniC has no
`tac`, so its cell gives `RequirementMissing`.

A flat MiniLua elseif chain of 200 and of 300 arms must give `Equal`
through every pass.  Its arms sit one per if view, each the else block
of the one before, so walks that reach sub-blocks through the views nest
one level per arm; `testcov`, which gives each elseif test a marker,
turns the chain into nested `else ... if ... end` blocks.  Recompose
took about four frames per arm there, so `testcov` failed with
`TransformError RecursionError` from 250 arms on; now the reparse of its
output fails first, in the statement parser, from 350 arms on.

Expressions nested 150 and 300 levels deep, in the four shapes of
`helpers.nested_expr`, must give `Equal` too.  Parentheses, binaries and
calls failed there with `ParseError original: maximum recursion depth
exceeded` when the parser took several Python frames per level; the
expression parser now takes none, so 10,000 levels parse.

Decompose may take no more Python frames per nested `if` or `while`
than its one walk takes today: 5 in MiniC, 4 in MiniJS and 3 in
MiniLua; and one per level of a unary chain.  A walk
that encodes a value in two frames, such as a constructor's encoder
called from the walk, reaches the recursion limit in the cells above.

Compiling and running such an expression must cost work linear in its
depth.  The run compiler once refolded every subtree at each level to
find constants, which made 3.9 times the calls into `runtime` at 300
levels as at 150; it now folds a node only when its compiled operands
are constants.
"""

import sys

import pytest

from helpers import EXPR_SHAPES, elseif_chain, nested_expr, nested_ifs, nested_whiles
from srctrans import runtime
from srctrans.difftest import PASSES, diff_one
from srctrans.langs.base import get_language

CELLS = [("minic", n) for n in (100, 120, 150)] + [
    ("minijs", n) for n in (150, 200)
] + [("minilua", n) for n in (200, 250, 300)]

REBUILT_CELLS = [
    (pass_name, lname, n)
    for lname, n in (("minic", 150), ("minijs", 200), ("minilua", 300))
    for pass_name in ("testcov", "tac")
]


@pytest.mark.parametrize("lname, n", CELLS)
def test_nested_ifs_are_equal(lname, n):
    verdict = diff_one(get_language(lname), PASSES["ident"], 0, nested_ifs(lname, n))
    assert verdict.kind == "Equal", verdict.detail


@pytest.mark.parametrize("pass_name, lname, n", REBUILT_CELLS)
def test_nested_ifs_rebuilt_by_a_pass(pass_name, lname, n):
    erase = pass_name == "testcov"
    verdict = diff_one(get_language(lname), PASSES[pass_name], 0, nested_ifs(lname, n), erase)
    if (pass_name, lname) == ("tac", "minic"):
        assert verdict.kind == "TransformError", verdict.detail
        assert verdict.detail.startswith("RequirementMissing"), verdict.detail
    else:
        assert verdict.kind == "Equal", verdict.detail


@pytest.mark.parametrize("pass_name", ["ident", "ehoist", "hoist", "testcov", "tac"])
def test_minilua_elseif_chain(pass_name):
    erase = pass_name == "testcov"
    for arms in (200, 300):
        text = elseif_chain(arms)
        verdict = diff_one(get_language("minilua"), PASSES[pass_name], 0, text, erase)
        assert verdict.kind == "Equal", (arms, verdict.detail)


EXPR_CELLS = [
    (pass_name, lname, shape, n)
    for pass_name in ("ident", "hoist", "testcov", "tac")
    for lname in ("minic", "minijs", "minilua")
    for shape in EXPR_SHAPES
    for n in (150, 300)
]


@pytest.mark.parametrize("pass_name, lname, shape, n", EXPR_CELLS)
def test_nested_expressions(pass_name, lname, shape, n):
    erase = pass_name == "testcov"
    text = nested_expr(lname, shape, n)
    verdict = diff_one(get_language(lname), PASSES[pass_name], 0, text, erase)
    if (pass_name, lname) == ("tac", "minic"):
        assert verdict.kind == "TransformError", verdict.detail
        assert verdict.detail.startswith("RequirementMissing"), verdict.detail
    else:
        assert verdict.kind == "Equal", verdict.detail


@pytest.mark.parametrize("lname", ["minic", "minijs", "minilua"])
@pytest.mark.parametrize("shape", EXPR_SHAPES)
def test_expression_parser_takes_no_frame_per_level(lname, shape):
    n = 10_000
    assert n > sys.getrecursionlimit()
    get_language(lname).parse(nested_expr(lname, shape, n))


def _runtime_calls(lang, text: str) -> int:
    """Calls into `runtime` while `lang.run` compiles and runs text."""
    ast = lang.parse(text)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == runtime.__file__:
            calls += 1

    sys.setprofile(count)
    try:
        lang.run(ast)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("lname", ["minic", "minijs", "minilua"])
@pytest.mark.parametrize("shape", EXPR_SHAPES)
def test_run_work_grows_linearly_with_depth(lname, shape):
    lang = get_language(lname)
    at_150 = _runtime_calls(lang, nested_expr(lname, shape, 150))
    at_300 = _runtime_calls(lang, nested_expr(lname, shape, 300))
    assert at_300 <= 2.2 * at_150, (at_150, at_300)


def _decompose_depth(lname: str, program, n: int) -> int:
    """The deepest Python stack, counted from decompose's own frame,
    while decompose encodes program(lname, n), a program nested n deep."""
    lang = get_language(lname)
    ast = lang.parse(program(lname, n))
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        lang.decompose(ast)
    finally:
        sys.setprofile(None)
    return deepest


@pytest.mark.parametrize("lname, frames", [("minic", 5), ("minijs", 4), ("minilua", 3)])
def test_decompose_frames_per_nesting_level(lname, frames):
    # a while loop takes what an if takes; a unary chain, one frame a level
    def unary(lname, n):
        return nested_expr(lname, "unary", n)

    for program, most in ((nested_ifs, frames), (nested_whiles, frames), (unary, 1)):
        per_level = (_decompose_depth(lname, program, 80)
                     - _decompose_depth(lname, program, 40)) / 40
        assert per_level <= most, (program, per_level)
