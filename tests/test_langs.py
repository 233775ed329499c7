"""Frontends and reference interpreters for the three bundled languages."""

import ast
from pathlib import Path

import pytest

import srctrans.langs
from helpers import COUNTF, unpruned_minilua_body_paths, without_origin
from srctrans.difftest import diff_test
from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language, language_names
from srctrans.langs.common import ParseError
from srctrans.terms import check_term

ALL = ("minic", "minijs", "minilua")

ROUNDTRIP_SAMPLES = {
    "minic": [
        "int main() {\n  return 0;\n}\n",
        "int f(int a, int b) {\n  return a + b;\n}\nint main() {\n  int x = f(1, 2), y;\n  print(x);\n  return y;\n}\n",
        "int main() {\n  int[] a = {1, 2, 3};\n  a[0] = a[1] + a[2];\n  return a[0];\n}\n",
        "int main() {\n  int i = 0;\n  for (i = 0; i < 3; i = i + 1) {\n    if (i == 1) {\n      continue;\n    }\n    print(i);\n  }\n  while (i > 0) {\n    i = i - 1;\n    break;\n  }\n  return i;\n}\n",
        "int main() {\n  bool p = true && !false;\n  if (p) {\n    if (1 < 2) {\n      print(1);\n    } else {\n      print(2);\n    }\n  }\n  return 0;\n}\n",
    ],
    "minijs": [
        "function main() {\n  return 0;\n}\n",
        "function f(a) {\n  return a * 2;\n}\nfunction main() {\n  var x = f(3), y = x + 1;\n  print(y);\n  return y;\n}\n",
        "function main() {\n  var a = [1, 2];\n  a[0] = a[1];\n  x = a[0];\n  return x;\n}\n",
        "function main() {\n  var i = 0;\n  for (i = 0; i < 3; i = i + 1) {\n    if (i == 1) {\n      continue;\n    }\n    print(i);\n  }\n  return i;\n}\n",
    ],
    "minilua": [
        "print(1)\n",
        "local a, b = 1, 2\na, b = b, a\nprint(a - b)\n",
        "function f(x)\n  if x > 1 then\n    return x\n  elseif x > 0 then\n    return 0 - x\n  else\n    return 0\n  end\nend\nprint(f(2))\n",
        "local t = 0\nfor i = 1, 9, 3 do\n  t = t + i\nend\nwhile t > 0 do\n  t = t - 5\n  break\nend\ndo\n  local t = 99\n  print(t)\nend\nprint(t)\nreturn t\n",
    ],
}


@pytest.mark.parametrize("lname", ALL)
def test_pretty_parse_roundtrip(lname):
    lang = get_language(lname)
    for text in ROUNDTRIP_SAMPLES[lname]:
        ast = lang.parse(text)
        printed = lang.pretty(ast)
        assert lang.parse(printed) == ast
        # pretty output is a fixed point
        assert lang.pretty(lang.parse(printed)) == printed


@pytest.mark.parametrize("lname", ALL)
def test_decompose_recompose_identity(lname):
    lang = get_language(lname)
    for text in ROUNDTRIP_SAMPLES[lname] + [COUNTF[lname]]:
        ast = lang.parse(text)
        term = lang.decompose(ast)
        check_term(term, lang.ips)
        assert lang.recompose(term) == ast
        assert lang.recompose(without_origin(term)) == ast


@pytest.mark.parametrize("lname", ALL)
def test_generated_roundtrip(lname):
    lang = get_language(lname)
    for seed in range(40):
        ast = lang.parse(gen_program(lname, GenConfig(seed=seed, shadowing=True)))
        assert lang.parse(lang.pretty(ast)) == ast
        term = lang.decompose(ast)
        assert lang.recompose(term) == ast
        assert lang.recompose(without_origin(term)) == ast


@pytest.mark.parametrize(
    "lname,bad",
    [
        ("minic", "int main() { return }"),
        ("minic", "int main() { int = 3; }"),
        ("minijs", "function main() { if }"),
        ("minilua", "local = 3\n"),
        ("minilua", "x + 1\n"),  # expression statements must be calls
    ],
)
def test_parse_errors(lname, bad):
    with pytest.raises(ParseError):
        get_language(lname).parse(bad)


def test_minic_arith_golden():
    lang = get_language("minic")
    text = (
        "int main() { int x = 7; print(x / 2); print(x % 2);"
        " print(0 - 7 / 2); if (x > 5) { print(1); } else { print(2); }"
        " return x; }"
    )
    # truncation toward zero: 7/2=3, 7%2=1, -(7/2)=-3
    assert lang.run(lang.parse(text)).events == (
        ("print", "3"), ("print", "1"), ("print", "-3"),
        ("print", "1"), ("return", "7"),
    )


def test_minic_traps():
    lang = get_language("minic")
    run = lambda t, **kw: lang.run(lang.parse(t), **kw).events
    assert run("int main() { print(1 / 0); return 0; }") == (("trap", "divzero"),)
    assert run("int main() { return y; }") == (("trap", "undef"),)
    assert run("int main() { while (1) { } return 0; }", fuel=50) == (("trap", "fuel"),)


def test_minic_binder_in_scope_in_init():
    # the declared name shadows any outer binding inside its initializer
    lang = get_language("minic")
    text = "int main() { int x = 5; { int x = x + 1; print(x); } return x; }"
    assert lang.run(lang.parse(text)).events == (("print", "1"), ("return", "5"))


def test_minic_dangling_else_roundtrip():
    lang = get_language("minic")
    text = "int main() { if (1) if (0) print(1); else print(2); return 0; }"
    ast = lang.parse(text)
    assert lang.parse(lang.pretty(ast)) == ast
    assert lang.run(ast).events == (("print", "2"), ("return", "0"))


def test_minijs_golden():
    lang = get_language("minijs")
    text = (
        "function main() { var a = [1, 2]; a[1] = 5; print(a[0] + a[1]);"
        " while (true) { break; } return 9 % 4; }"
    )
    assert lang.run(lang.parse(text)).events == (("print", "6"), ("return", "1"))


def test_minijs_var_initializer_sees_own_binding():
    lang = get_language("minijs")
    text = "function main() { var x = 5; { var x = x; print(x); } return x; }"
    assert lang.run(lang.parse(text)).events == (
        ("print", "undefined"), ("return", "5"),
    )


def test_minilua_golden():
    lang = get_language("minilua")
    text = (
        "local a, b = 1, 2\na, b = b, a\nprint(a)\nprint(b)\n"
        "for i = 1, 5, 2 do print(i) end\nprint(nil == false)\n"
    )
    assert lang.run(lang.parse(text)).events == (
        ("print", "2"), ("print", "1"), ("print", "1"), ("print", "3"),
        ("print", "5"), ("print", "false"), ("return", "nil"),
    )


def test_minilua_nil_semantics():
    lang = get_language("minilua")
    # unknown globals read nil; arithmetic on nil traps
    assert lang.run(lang.parse("print(x)\nx = 1 + nil\n")).events == (
        ("print", "nil"), ("trap", "type"),
    )
    # local shadowing reads the outer binding in its own initializer
    assert lang.run(lang.parse(
        "local x = 3\ndo\n  local x = x + 1\n  print(x)\nend\nprint(x)\n"
    )).events == (("print", "4"), ("print", "3"), ("return", "nil"))


def test_minilua_zero_is_truthy():
    lang = get_language("minilua")
    assert lang.run(lang.parse("if 0 then print(1) else print(2) end\n")).events == (
        ("print", "1"), ("return", "nil"),
    )


def test_external_mock_formula():
    # counter 0: (0*7+0)%5-2 = -2; counter 1: 7%5-2 = 0;
    # counter 2: 2%3==2 so (2+0)%2==0 = true
    lang = get_language("minic")
    text = "int main() { print(ext0(0)); print(ext0(0)); print(ext0(0)); return 0; }"
    assert lang.run(lang.parse(text)).events == (
        ("call", "ext0", ("0",)), ("print", "-2"),
        ("call", "ext0", ("0",)), ("print", "0"),
        ("call", "ext0", ("0",)), ("print", "true"),
        ("return", "0"),
    )


@pytest.mark.parametrize("lname", ALL)
def test_runs_deterministic(lname):
    lang = get_language(lname)
    for seed in (3, 17):
        ast = lang.parse(gen_program(lname, GenConfig(seed=seed)))
        assert lang.run(ast) == lang.run(ast)


def test_registry():
    assert set(language_names()) == {"minic", "minijs", "minilua"}
    with pytest.raises(KeyError):
        get_language("cobol")


@pytest.mark.parametrize(
    "lname,text",
    [
        ("minic", "int main() { break; }"),
        ("minic", "int main() { continue; }"),
        ("minic", "int main() { if (true) break; return 0; }"),
        ("minijs", "function main() { break; }"),
        ("minijs", "function main() { continue; }"),
        ("minijs", "function main() { { continue; } }"),
        ("minilua", "break\n"),
        ("minilua", "if true then break end\n"),
        # a function body is not a loop, even inside one
        ("minilua", "while true do function f() break end break end\n"),
    ],
)
def test_jump_outside_loop_rejected(lname, text):
    with pytest.raises(ParseError, match="outside a loop"):
        get_language(lname).parse(text)


JUMPS_IN_NESTED_BLOCKS = {
    "minic": (
        "int main() {\n  while (true) {\n    if (true) {\n      {\n"
        "        break;\n      }\n    }\n  }\n  for (; ; )\n    if (false)\n"
        "      continue;\n    else\n      break;\n  return 0;\n}\n"
    ),
    "minijs": (
        "function main() {\n  while (true) {\n    if (true) {\n      {\n"
        "        break;\n      }\n    }\n  }\n  for (; ; ) {\n    {\n"
        "      continue;\n    }\n  }\n}\n"
    ),
    "minilua": (
        "while true do\n  if true then\n    do\n      break\n    end\n"
        "  end\nend\nfor i = 1, 2 do\n  if i > 1 then\n    break\n"
        "  else\n    function f()\n      return 1\n    end\n  end\nend\n"
    ),
}


@pytest.mark.parametrize("lname", ALL)
def test_jump_in_nested_block_of_loop_parses(lname):
    lang = get_language(lname)
    text = JUMPS_IN_NESTED_BLOCKS[lname]
    assert lang.pretty(lang.parse(text)) == text


RECURSION = {
    "minic": (
        "int f(int n) { if (n == 0) { return 7; } return f(n - 1); }\n"
        "int main() { return f(N); }\n"
    ),
    "minijs": (
        "function f(n) { if (n == 0) { return 7; } return f(n - 1); }\n"
        "function main() { return f(N); }\n"
    ),
    "minilua": (
        "function f(n)\n  if n == 0 then\n    return 7\n  end\n"
        "  return f(n - 1)\nend\nreturn f(N)\n"
    ),
}


@pytest.mark.parametrize("lname", ALL)
def test_call_depth_limit(lname):
    lang = get_language(lname)
    shallow = RECURSION[lname].replace("N", "50")
    assert lang.run(lang.parse(shallow)).events == (("return", "7"),)
    deep = RECURSION[lname].replace("N", "1000")
    assert lang.run(lang.parse(deep)).events[-1] == ("trap", "stack")
    assert diff_test(lname, "ident", [deep]).verdicts[0].kind == "Equal"


def test_frontends_import_no_other_frontend():
    langs_dir = Path(srctrans.langs.__file__).parent
    for lname in ALL:
        tree = ast.parse((langs_dir / f"{lname}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rsplit(".", 1)[-1])
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.name.rsplit(".", 1)[-1] for a in node.names)
        assert not imported & (set(ALL) - {lname}), lname


# Functions nested in each MiniLua body that can hold one: an if's then
# and else, an elseif arm, a while, a numeric for, a do block and a
# function, and a function after a nested one.
NESTED_FUNCS = """\
function a()
  if x then
    function b()
      return 1
    end
  elseif y then
    function c()
      while z do
        function d()
          return 2
        end
      end
    end
  else
    for i = 1, 3 do
      do
        function e()
          function f()
            return 3
          end
          return f
        end
      end
    end
  end
  function g()
    return 4
  end
end
local h = 1
"""


def test_minilua_body_scan_finds_what_a_full_scan_finds():
    """The body scan descends only into the sorts that can hold a
    FuncStmt; it gives the paths a scan of every node gives."""
    lang = get_language("minilua")
    texts = [NESTED_FUNCS] + [gen_program("minilua", GenConfig(seed=s, max_depth=d))
                              for s in range(40) for d in (3, 6)]
    for text in texts:
        term = lang.decompose(lang.parse(text))
        assert lang.adapter.body_paths(term) == unpruned_minilua_body_paths(term), text
    nested = lang.decompose(lang.parse(NESTED_FUNCS))
    assert len(lang.adapter.body_paths(nested)) == 8
