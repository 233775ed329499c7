"""Interpreted recursion under nested blocks (ROADMAP item 5).

f(n) returns f(n - 1) + 1 from inside k nested `if (n > 0)` blocks.
Each interpreted call nests Python frames, so a deep enough call gives
the harness-failure verdict `RunError ... RecursionError` instead of
`Equal`.  The first three depths passed under the tree-walking
interpreters; the rest pass since runs are compiled to closures, which
nest fewer frames per call and per block.  At n=101 the run ends in
`Trap("stack")` (`runtime.MAX_CALL_DEPTH`), in both runs.
"""

import pytest

from helpers import nested_recursion
from srctrans.difftest import PASSES, diff_one
from srctrans.langs.base import get_language


@pytest.mark.parametrize("k, n", [(1, 60), (3, 40), (6, 20), (1, 101), (3, 70), (6, 45)])
@pytest.mark.parametrize("lname", ["minic", "minijs", "minilua"])
def test_nested_recursion_is_equal(lname, k, n):
    lang = get_language(lname)
    verdict = diff_one(lang, PASSES["ident"], 0, nested_recursion(lname, k, n))
    assert verdict.kind == "Equal", verdict.detail
