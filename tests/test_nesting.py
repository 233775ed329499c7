"""Statements nested deep (ROADMAP item 1).

`ident` on a program whose print sits inside n nested `if` blocks must
give `Equal`.  Each cell here failed with `TransformError RecursionError`
when decompose built the modular tree and then rebuilt it: the codecs of
`to_modular` took 10 (MiniC), 8 (MiniJS) and 6 (MiniLua) Python frames
per nesting level.  The one walk of decompose takes 5, 4 and 3.  MiniC
fails in its parser from 200 levels on.
"""

import pytest

from helpers import nested_ifs
from srctrans.difftest import PASSES, diff_one
from srctrans.langs.base import get_language

CELLS = [("minic", n) for n in (100, 120, 150)] + [
    ("minijs", n) for n in (150, 200)
] + [("minilua", n) for n in (200, 250, 300)]


@pytest.mark.parametrize("lname, n", CELLS)
def test_nested_ifs_are_equal(lname, n):
    verdict = diff_one(get_language(lname), PASSES["ident"], 0, nested_ifs(lname, n))
    assert verdict.kind == "Equal", verdict.detail
