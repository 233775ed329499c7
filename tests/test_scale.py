"""Scale ladder: a long straight-line block gets the same verdict as a
short one, for every language and pass.  The tree walkers use explicit
stacks, so no pass recurses down a block's list spine."""

import pytest

from srctrans.difftest import PASSES, diff_test

SIZES = (10, 1000, 3000)


def straight_line(lname: str, n: int) -> str:
    if lname == "minic":
        return "int main() {\n  int x = 0;\n" + "  x = x + 1;\n" * n + "  return x;\n}\n"
    if lname == "minijs":
        return "function main() {\n  var x = 0;\n" + "  x = x + 1;\n" * n + "  return x;\n}\n"
    return "local x = 0\n" + "x = x + 1\n" * n + "print(x)\n"


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("pname", sorted(PASSES))
@pytest.mark.parametrize("lname", ["minic", "minijs", "minilua"])
def test_straight_line_ladder(lname, pname, n):
    verdict = diff_test(lname, pname, [straight_line(lname, n)]).verdicts[0]
    if (lname, pname) == ("minic", "tac"):
        # MiniC declarations are typed, so tac cannot declare temporaries
        assert (verdict.kind, verdict.detail.split(":")[0]) == (
            "TransformError", "RequirementMissing"
        )
    else:
        assert (verdict.kind, verdict.detail) == ("Equal", "")
