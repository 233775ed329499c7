"""The passes take time linear in the nesting depth (ROADMAP item 13).

Each cell runs one pass on "a declaration after each of n nested
blocks" (`helpers.nested_decls`) at n = SMALL and at 4 * SMALL, in one
process, and compares the CPU times, best of 5 each
(`helpers.cpu_seconds`), taken twice in turn.  Linear growth gives a ratio near 4 and
quadratic growth near 16, so a ratio above 8 fails.

Measured on a 2-core shared host, five runs of each cell: `hoist` reads
3.2-5.9 in each language.  Before it kept the identifier names of each
block it had rewritten (`fragments.NameSets`), its prefix scans read
every nested block once per enclosing block: it read 6.3-15.1, mostly
11-13, and MiniC took 7.2 / 27.3 / 98.8 ms at n = 25 / 50 / 100.  `tac`
reads 3.9-4.5.  `testcov` reads 5.0-5.7, so its margin is 1.4: its CFG
builder and its insertion key each block by a path as long as the
nesting depth (`flow.build_cfg`, still open in item 13), so its ratio
grows with n; at n = 40 it reads 5.5-7.3.  hoist's postcondition check
(`hoist.postcondition_violations`), on the input itself, reads 3.1-4.3,
and read 11.7-13.7 when it scanned every nested block again for each
block around it.  The depths stay far below the recursion limit of the
parser and of decompose.
"""

import pytest

from helpers import cpu_seconds, nested_decls
from srctrans.difftest import PASSES
from srctrans.langs.base import get_language
from srctrans.passes.hoist import hoist, postcondition_violations

SMALL = 25
# The passes, and hoist's postcondition check, which asks for each
# block's prefix names too
TIMED = {"hoist": PASSES["hoist"], "tac": PASSES["tac"], "testcov": PASSES["testcov"],
         "postcondition": postcondition_violations}
CELLS = [(lname, name) for lname in ("minic", "minijs", "minilua") for name in TIMED
         if not (name == "tac" and lname == "minic")]  # MiniC has no tac


@pytest.mark.parametrize("lname,name", CELLS)
def test_time_grows_linearly_with_nesting(lname, name):
    lang = get_language(lname)
    small, large = (lang.decompose(lang.parse(nested_decls(lname, n)))
                    for n in (SMALL, 4 * SMALL))
    fn = TIMED[name]
    # Each size is timed twice, in turn, and keeps its lesser time: a
    # burst of load from other tenants can outlast the five runs of one
    # timing, and then slows only one of the two.
    small_s, large_s, small_again, large_again = (
        cpu_seconds(fn, t, lang) for t in (small, large, small, large))
    small_s, large_s = min(small_s, small_again), min(large_s, large_again)
    assert large_s <= 8 * small_s, f"{large_s:.4f} s against {small_s:.4f} s"


@pytest.mark.parametrize("lname", ("minic", "minijs", "minilua"))
def test_the_nested_declarations_hoist_and_run_alike(lname):
    """The shape is what its docstring says: every level's declaration
    follows a nested block that reads x, so hoist moves each one and
    the program prints the same."""
    lang = get_language(lname)
    text = nested_decls(lname, 3)
    ast = lang.parse(text)
    out = lang.pretty(lang.recompose(hoist(lang.decompose(ast), lang)))
    assert out != lang.pretty(ast)
    assert lang.run(lang.parse(out)).events == lang.run(ast).events
