"""Scale ladder: a long list gets the same verdict as a short one, for
every language and pass.  A list is one node whatever its length, so no
walker's stack grows with it; the tree walkers also keep explicit
stacks, so they guard nesting depth only.  The shapes are a long
straight-line block, many top-level functions and one call with many
arguments."""

import pytest

from srctrans.difftest import PASSES, diff_test

SIZES = (10, 1000, 3000)
LANGS = ["minic", "minijs", "minilua"]


def straight_line(lname: str, n: int) -> str:
    if lname == "minic":
        return "int main() {\n  int x = 0;\n" + "  x = x + 1;\n" * n + "  return x;\n}\n"
    if lname == "minijs":
        return "function main() {\n  var x = 0;\n" + "  x = x + 1;\n" * n + "  return x;\n}\n"
    return "local x = 0\n" + "x = x + 1\n" * n + "print(x)\n"


def functions(lname: str, n: int) -> str:
    """n top-level functions, of which main calls the first and the last."""
    if lname == "minic":
        funcs = [f"int f{i}() {{\n  int x = {i};\n  return x + 1;\n}}\n" for i in range(n)]
        return "".join(funcs) + f"int main() {{\n  return f0() + f{n - 1}();\n}}\n"
    if lname == "minijs":
        funcs = [f"function f{i}() {{\n  var x = {i};\n  return x + 1;\n}}\n" for i in range(n)]
        return "".join(funcs) + f"function main() {{\n  return f0() + f{n - 1}();\n}}\n"
    funcs = [f"function f{i}()\n  local x = {i}\n  return x + 1\nend\n" for i in range(n)]
    return "".join(funcs) + f"print(f0() + f{n - 1}())\n"


def call_args(lname: str, n: int) -> str:
    """One call of an undefined, so mocked, function with n arguments."""
    call = "ext(" + ", ".join(f"{i} + 1" for i in range(n)) + ")"
    if lname == "minic":
        return f"int main() {{\n  return {call};\n}}\n"
    if lname == "minijs":
        return f"function main() {{\n  return {call};\n}}\n"
    return f"print({call})\n"


SHAPES = {"functions": functions, "call_args": call_args}


def assert_verdict(lname: str, pname: str, text: str) -> None:
    verdict = diff_test(lname, pname, [text]).verdicts[0]
    if (lname, pname) == ("minic", "tac"):
        # MiniC declarations are typed, so tac cannot declare temporaries
        assert (verdict.kind, verdict.detail.split(":")[0]) == (
            "TransformError", "RequirementMissing"
        )
    else:
        assert (verdict.kind, verdict.detail) == ("Equal", "")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("pname", sorted(PASSES))
@pytest.mark.parametrize("lname", LANGS)
def test_straight_line_ladder(lname, pname, n):
    assert_verdict(lname, pname, straight_line(lname, n))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("pname", sorted(PASSES))
@pytest.mark.parametrize("lname", LANGS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_long_list_ladder(shape, lname, pname, n):
    assert_verdict(lname, pname, SHAPES[shape](lname, n))
