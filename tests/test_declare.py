"""Declarations in the run compiler: what a block sees, and their cost.

The compiler resolves each variable when it compiles it, against the
names each enclosing scope has declared so far (`Compiler.scopes`).  A
block is compiled the first time it runs, against the scopes as they
were where it starts, so it must not see a declaration that comes after
it in an enclosing block, although the enclosing block has compiled
that declaration by then.

Only a block one of whose own items declares gets a scope: the items
whose constructors are in the language's `DECLARES`, which must be
exactly the items whose compile calls `Compiler.declare`.
"""

import pytest

from helpers import HAND, cpu_seconds
from srctrans.gen import GenConfig, gen_program
from srctrans.langs import minic, minijs, minilua
from srctrans.langs.base import get_language
from srctrans.runtime import Compiler, scope

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
    small_s, large_s = cpu_seconds(lang.run, small), cpu_seconds(lang.run, large)
    assert large_s <= 8 * small_s, f"{large_s:.4f} s against {small_s:.4f} s"


MODULES = {"minic": minic, "minijs": minijs, "minilua": minilua}


@pytest.mark.parametrize("lname", sorted(MODULES))
def test_the_declaring_items_are_the_callers_of_declare(lname, monkeypatch):
    """Compile each item-position node of the hand-written programs and
    of generated ones, each in a scope of its own, and record whether
    its compile declared a name."""
    lang = get_language(lname)
    cls = MODULES[lname]._Compiler
    comp = cls.__new__(cls)
    Compiler.__init__(comp, {})
    declared = []
    declare = Compiler.declare
    monkeypatch.setattr(Compiler, "declare",
                        lambda self, name: declared.append(name) or declare(self, name))
    texts = [*HAND[lname].values()] + [
        gen_program(lname, GenConfig(seed=s, shadowing=shadowing))
        for s in range(20) for shadowing in (False, True)
    ]
    found: dict[str, set] = {}
    for text in texts:
        for node in lang.item_walk(lang.parse(text)):
            comp.scopes = [scope()]
            declared.clear()
            # MiniC's bare body statements are statements, not items
            (comp.stmt if node.ctor in comp.STMT else comp.item)(node)
            found.setdefault(node.ctor, set()).add(bool(declared))
    assert {ctor for ctor, calls in found.items() if True in calls} == cls.DECLARES
    assert all(found[ctor] == {True} for ctor in cls.DECLARES)


# A block without a declaration nested in one with, and the reverse, in
# loops and, in MiniLua, in a numeric for's body.
SHADOWING = {
    "minic": """\
int main() {
  {
    int x = 1;
    {
      x = 2;
      print(x);
    }
    print(x);
  }
  int x = 0;
  {
    {
      int x = 3;
      print(x);
    }
    print(x);
  }
  while (x < 2) {
    x = x + 1;
    {
      int x = 10;
      {
        x = x + 1;
        print(x);
      }
    }
    print(x);
  }
  return x;
}
""",
    "minijs": """\
function main() {
  {
    var x = 1;
    {
      x = 2;
      print(x);
    }
    print(x);
  }
  var x = 0;
  {
    {
      var x = 3;
      print(x);
    }
    print(x);
  }
  while (x < 2) {
    x = x + 1;
    {
      var x = 10;
      {
        x = x + 1;
        print(x);
      }
    }
    print(x);
  }
  return x;
}
""",
    "minilua": """\
do
  local x = 1
  do
    x = 2
    print(x)
  end
  print(x)
end
local x = 0
do
  do
    local x = 3
    print(x)
  end
  print(x)
end
while x < 2 do
  x = x + 1
  do
    local x = 10
    do
      x = x + 1
      print(x)
    end
  end
  print(x)
end
for i = 1, 2 do
  do
    local i = i * 5
    print(i)
  end
  print(i)
end
return x
""",
}
SHADOWING_PRINTS = {
    "minic": ["2", "2", "3", "0", "11", "1", "11", "2"],
    "minijs": ["2", "2", "3", "0", "11", "1", "11", "2"],
    "minilua": ["2", "2", "3", "0", "11", "1", "11", "2", "5", "1", "10", "2"],
}


@pytest.mark.parametrize("lname", sorted(SHADOWING))
def test_blocks_with_and_without_declarations_nest(lname):
    lang = get_language(lname)
    events = lang.run(lang.parse(SHADOWING[lname])).events
    assert events == (*(("print", p) for p in SHADOWING_PRINTS[lname]), ("return", "2"))
