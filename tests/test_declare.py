"""Declarations in the run compiler: what a block sees, and their cost.

The compiler resolves each variable when it compiles it, against the
names each enclosing scope has declared so far (`Compiler.scopes`).  A
block is compiled the first time it runs, against the scopes as they
were where it starts, so it must not see a declaration that comes after
it in an enclosing block, although the enclosing block has compiled
that declaration by then.
"""

import time

import pytest

from srctrans.langs.base import get_language

LATER = {
    # the first inner block reads the outer y; the second the later one
    "minic": "int main() {\n  int y = 5;\n  {\n    {\n      print(y);\n    }\n"
             "    int y = 7;\n    {\n      print(y);\n    }\n  }\n  return 0;\n}\n",
    "minijs": "function main() {\n  g = 5;\n  {\n    print(g);\n  }\n  var g = 7;\n"
              "  {\n    print(g);\n  }\n  return 0;\n}\n",
    "minilua": "y = 5\nfunction f()\n  do\n    print(y)\n  end\n  local y = 7\n"
               "  do\n    print(y)\n  end\nend\nf()\n",
}


@pytest.mark.parametrize("lname", sorted(LATER))
def test_a_block_does_not_see_a_later_declaration(lname):
    lang = get_language(lname)
    events = lang.run(lang.parse(LATER[lname])).events
    assert events[:2] == (("print", "5"), ("print", "7"))


def declarations(lname: str, n: int) -> str:
    """One block of n declarations."""
    if lname == "minic":
        return "int main() {\n" + "".join(f"  int v{i} = {i};\n" for i in range(n)) + "  return 0;\n}\n"
    if lname == "minijs":
        return "function main() {\n" + "".join(f"  var v{i} = {i};\n" for i in range(n)) + "  return 0;\n}\n"
    return "".join(f"local v{i} = {i}\n" for i in range(n))


def run_seconds(lang, ast) -> float:
    """The CPU time of lang.run on ast, best of 5."""
    best = float("inf")
    for _ in range(5):
        start = time.process_time()
        lang.run(ast)
        best = min(best, time.process_time() - start)
    return best


@pytest.mark.parametrize("lname", sorted(LATER))
def test_run_time_grows_linearly_with_declarations(lname):
    """Running one block of 8,000 declarations costs at most 8 times what
    2,000 cost.

    Linear growth gives a ratio near 4, so the bound leaves a factor of 2
    for noise.  When each declaration copied its scope's set of names,
    the ratio was 28-32 on a 2-core shared host.
    """
    lang = get_language(lname)
    small, large = (lang.parse(declarations(lname, n)) for n in (2000, 8000))
    small_s, large_s = run_seconds(lang, small), run_seconds(lang, large)
    assert large_s <= 8 * small_s, f"{large_s:.4f} s against {small_s:.4f} s"
