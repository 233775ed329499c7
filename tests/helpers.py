"""Shared oracles and fixtures for the test suite.

Everything here is deliberately independent of the implementation under
test: the schema/value fuzzers build inputs from scratch, and the
coverage oracle recomputes executed blocks from interpreter callbacks
rather than from the instrumentation output.
"""

from __future__ import annotations

import random
import string
import time

from srctrans.langs.base import LanguageDef
from srctrans.schema import (
    ConstructorDecl,
    GV,
    ListT,
    Named,
    PairT,
    PairV,
    Prim,
    Schema,
)
from srctrans.terms import (
    Atom,
    ListOf,
    PairOf,
    Signature,
    Term,
    build_list,
    build_pair,
    mk_term,
)

def replace_language(lang: LanguageDef, **changes) -> LanguageDef:
    """The language built from lang's fields with `changes` in place of
    some of them."""
    fields = {name: getattr(lang, name) for name in LanguageDef.__match_args__}
    return LanguageDef(**{**fields, **changes})


def without_origin(term: Term) -> Term:
    """A copy of term rebuilt through mk_term, so that no node records an
    origin and recomposing the copy walks every node.  Uses an explicit
    stack, so deep terms do not recurse."""
    done: list[Term] = []
    stack = [(term, False)]
    while stack:
        t, built_children = stack.pop()
        if built_children:
            start = len(done) - len(t.children)
            children = done[start:]
            del done[start:]
            done.append(mk_term(t.kind, t.payload_values, children))
        else:
            stack.append((t, True))
            stack.extend((c, False) for c in reversed(t.children))
    return done[0]


def unpruned_transform_bottom_up(r, t: Term, within=None) -> Term:
    """traversal.transform_bottom_up as it was before it skipped sorts:
    `within` is ignored, so r sees every node.  Rebuilds through mk_term
    and checks that r keeps each node's sort."""
    results: list[Term] = []
    todo: list = [t]
    while todo:
        node = todo.pop()
        if node.__class__ is Term:
            if node.children:
                todo.append((node,))
                todo.extend(reversed(node.children))
                continue
        else:
            node = node[0]
            n = len(node.children)
            children = results[-n:]
            del results[-n:]
            if any(a is not b for a, b in zip(children, node.children)):
                node = mk_term(node.kind, node.payload_values, children)
        out = r(node)
        assert out is None or out.sort is node.sort
        results.append(node if out is None else out)
    return results[0]


def unpruned_minilua_body_paths(root: Term) -> list:
    """The MiniLua adapter's body_paths as a scan that descends into
    every node: the chunk body, then the body of each FuncStmt in
    document order, each as the path to its generic Block."""
    paths = [(0, 0)]
    todo = [(root, ())]
    while todo:
        node, path = todo.pop()
        if node.kind.name == "MiniLua.FuncStmt":
            paths.append((*path, 2, 0))
        todo.extend((child, (*path, i)) for i, child in reversed(list(enumerate(node.children))))
    return paths


# ---------------------------------------------------------------------------
# Random schemas and conforming values (modularizer isomorphism oracle).


def random_schema(rng: random.Random, index: int) -> Schema:
    """A random well-formed schema of at most 6 types and 4 constructors.

    Constructor 0 of each type only references earlier types, so every
    type has a finite value and generation always terminates.
    """
    n_types = rng.randrange(1, 7)
    names = [f"T{i}" for i in range(n_types)]
    defs = []
    for i, tname in enumerate(names):
        n_ctors = rng.randrange(1, 5)
        ctors = []
        for c in range(n_ctors):
            # base constructor: earlier types only; others: any type
            pool = names[:i] if c == 0 else names
            n_args = rng.randrange(0, 4)
            args = tuple(_random_arg(rng, pool) for _ in range(n_args))
            ctors.append(ConstructorDecl(f"{tname}C{c}", args))
        defs.append((tname, tuple(ctors)))
    return Schema(f"Rand{index}", tuple(defs), names[-1])


def _random_arg(rng: random.Random, pool: list):
    r = rng.random()
    prims = [Prim("Int"), Prim("Bool"), Prim("String")]
    scalar = prims + [Named(n) for n in pool]
    if r < 0.55 or not pool:
        return rng.choice(scalar if pool else prims)
    if r < 0.8:
        return ListT(rng.choice(scalar))
    return PairT(rng.choice(scalar), rng.choice(scalar))


def random_value(schema: Schema, type_name: str, rng: random.Random,
                 depth: int = 4) -> GV:
    ctors = schema.types()[type_name]
    ctor = ctors[0] if depth <= 0 else rng.choice(ctors)
    args = tuple(
        _random_arg_value(schema, a, rng, depth - 1) for a in ctor.args
    )
    return GV(ctor.name, args)


def _random_arg_value(schema: Schema, ty, rng: random.Random, depth: int):
    if isinstance(ty, Prim):
        return _random_prim(ty.name, rng)
    if isinstance(ty, Named):
        return random_value(schema, ty.name, rng, depth)
    if isinstance(ty, ListT):
        return tuple(
            _random_arg_value(schema, ty.elem, rng, depth - 1)
            for _ in range(rng.randrange(0, 3))
        )
    if isinstance(ty, PairT):
        return PairV(
            _random_arg_value(schema, ty.first, rng, depth - 1),
            _random_arg_value(schema, ty.second, rng, depth - 1),
        )
    raise AssertionError(ty)


def _random_prim(name: str, rng: random.Random):
    if name == "Int":
        return rng.randrange(-50, 50)
    if name == "Bool":
        return rng.random() < 0.5
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


# ---------------------------------------------------------------------------
# Term fuzzing by sort (injection round-trip oracle).


def _min_depths(sig: Signature) -> dict:
    """Least constructor nesting needed to build each atomic sort."""
    INF = 10 ** 9
    depth: dict = {}

    def sort_depth(sort) -> int:
        if isinstance(sort, Atom):
            return depth.get(sort, INF)
        if isinstance(sort, ListOf):
            return 0  # empty container
        if isinstance(sort, PairOf):
            a, b = sort_depth(sort.first), sort_depth(sort.second)
            return max(a, b) + 1 if a < INF and b < INF else INF
        raise AssertionError(sort)

    changed = True
    while changed:
        changed = False
        for k in sig.kinds:
            ds = [sort_depth(s) for s in k.child_sorts]
            d = (max(ds) if ds else 0) + 1
            if d < depth.get(k.produced, INF):
                depth[k.produced] = d
                changed = True
    return depth


class TermFuzzer:
    def __init__(self, sig: Signature, seed: int = 0):
        self.sig = sig
        self.rng = random.Random(seed)
        self.depths = _min_depths(sig)
        self.producers: dict = {}
        for k in sig.kinds:
            self.producers.setdefault(k.produced, []).append(k)

    def term(self, sort, budget: int = 4) -> Term:
        if isinstance(sort, ListOf):
            n = self.rng.randrange(0, 3) if budget > 0 else 0
            return build_list(
                sort.elem, [self.term(sort.elem, budget - 1) for _ in range(n)]
            )
        if isinstance(sort, PairOf):
            return build_pair(
                self.term(sort.first, budget - 1),
                self.term(sort.second, budget - 1),
            )
        kinds = self.producers.get(sort)
        if not kinds:
            raise ValueError(f"no kind produces {sort}")
        fitting = [k for k in kinds if self._kind_depth(k) <= budget]
        kind = self.rng.choice(fitting) if fitting else min(
            kinds, key=self._kind_depth
        )
        payloads = tuple(_random_prim(p, self.rng) for p in kind.payloads)
        children = tuple(self.term(s, budget - 1) for s in kind.child_sorts)
        return mk_term(kind, payloads, children)

    def _kind_depth(self, kind) -> int:
        INF = 10 ** 9
        worst = 0
        for s in kind.child_sorts:
            if isinstance(s, Atom):
                worst = max(worst, self.depths.get(s, INF))
        return worst + 1


# ---------------------------------------------------------------------------
# Transliterations of the counting example used by the coverage golden.

COUNTF = {
    "minic": """\
int main() {
  int count = 0;
  int i = 0;
  for (i = 0; i < 9; i = i + 1) {
    if (f(i)) {
      count = count + 1;
      break;
    } else {
      print(i);
    }
  }
  return count;
}
""",
    "minijs": """\
function main() {
  var count = 0;
  var i = 0;
  for (i = 0; i < 9; i = i + 1) {
    if (f(i)) {
      count = count + 1;
      break;
    } else {
      print(i);
    }
  }
  return count;
}
""",
    "minilua": """\
local count = 0
for i = 1, 9 do
  if f(i) then
    count = count + 1
    break
  else
    print(i)
  end
end
print(count)
""",
}


# ---------------------------------------------------------------------------
# Hand-written programs for the interpreters: recursion, nested loops with
# break and continue, short-circuit conditions, arrays, shadowing and
# declarations that come after a use, and a run ending in each trap.

HAND = {
    "minic": {
        "fib": """\
int fib(int n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
int main() {
  print(fib(10));
  return fib(7);
}
""",
        "loops": """\
int main() {
  int s = 0;
  int i = 0;
  for (i = 0; i < 6; i = i + 1) {
    int j = 0;
    while (j < 6) {
      j = j + 1;
      if (j == 2) {
        continue;
      }
      if (i * j > 12) {
        break;
      }
      s = s + i * j;
      print(s);
    }
    if (i == 4) break;
    for (;;) {
      if (s > 0) break;
      s = s + 1;
    }
  }
  return s;
}
""",
        "shortcircuit": """\
int main() {
  int a = 0;
  bool b = f(1) && g(2);
  bool c = f(3) || g(4);
  if (a == 0 || h(a) > 1 && !k(2)) {
    print(a, b, c);
  }
  while (a < 5 && (a != 3 || f(a))) {
    a = a + 1;
  }
  return -a;
}
""",
        "arrays": """\
int main() {
  int[] a = {1, 2, 3};
  int[] b;
  a[1] = 5;
  b = array(7, 8);
  print(a, b, a[1] + b[0]);
  return a[3];
}
""",
        "scopes": """\
int g(int x) {
  int y = x + 1;
  {
    int x = y * 2;
    y = x + y;
  }
  return y + x;
}
int main() {
  int a = 1;
  int b = a + 1, c = b + a;
  int d = d + 5;
  int i = 0;
  while (i < 3) {
    print(a);
    int a = i * 10;
    a = a + 1;
    print(a);
    i = i + 1;
  }
  for (i = 0; i < 2; i = i + 1) {
    int j = i;
    {
      int j = 7;
      print(j);
    }
    print(j);
  }
  print(b, c, d, g(a));
  return a;
}
""",
        "divzero": "int main() {\n  int x = 3;\n  print(x);\n  return x / (x - 3);\n}\n",
        "type": "int main() {\n  bool b = true;\n  print(1);\n  return b + 1;\n}\n",
        "undef": "int main() {\n  print(1);\n  return y;\n}\n",
        "stack": "int f(int n) {\n  return f(n + 1);\n}\nint main() {\n  return f(0);\n}\n",
        "fuel": "int main() {\n  int i = 0;\n  while (true) {\n    i = i + 1;\n  }\n  return i;\n}\n",
    },
    "minijs": {
        "fib": """\
function fib(n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
function main() {
  print(fib(10));
  return fib(7);
}
""",
        "loops": """\
function main() {
  var s = 0;
  var i = 0;
  for (i = 0; i < 6; i = i + 1) {
    var j = 0;
    while (j < 6) {
      j = j + 1;
      if (j == 2) {
        continue;
      }
      if (i * j > 12) {
        break;
      }
      s = s + i * j;
      print(s);
    }
    if (i == 4) {
      break;
    }
    for (;;) {
      if (s > 0) {
        break;
      }
      s = s + 1;
    }
  }
  return s;
}
""",
        "shortcircuit": """\
function main() {
  var a = 0;
  var b = f(1) && g(2), c = f(3) || g(4);
  if (a == 0 || h(a) > 1 && !k(2)) {
    print(a, b, c, undefined || a);
  }
  while (a < 5 && (a != 3 || f(a))) {
    a = a + 1;
  }
  return -a;
}
""",
        "arrays": """\
function main() {
  "use strict";
  var a = [1, 2, 3];
  a[1] = 5;
  a[3] = [a[0]];
  g = a;
  print(a, g == a, a[7], a[3][0]);
  return a.length;
}
""",
        "scopes": """\
function g(x) {
  var y = x + 1;
  {
    var x = y * 2;
    y = x + y;
  }
  return y + x;
}
function main() {
  var a = 1;
  var b = a + 1, c = b + a;
  var d = d;
  h = 4;
  var i = 0;
  while (i < 3) {
    print(a, h);
    var a = i * 10;
    a = a + 1;
    print(a);
    i = i + 1;
  }
  print(b, c, d, g(a), h);
  return a;
}
""",
        "divzero": "function main() {\n  var x = 3;\n  print(x);\n  return x % (x - 3);\n}\n",
        "type": "function main() {\n  var b = true;\n  print(1);\n  return b + 1;\n}\n",
        "undef": "function main() {\n  print(1);\n  return y;\n}\n",
        "stack": "function f(n) {\n  return f(n + 1);\n}\nfunction main() {\n  return f(0);\n}\n",
        "fuel": "function main() {\n  var i = 0;\n  while (true) {\n    i = i + 1;\n  }\n  return i;\n}\n",
    },
    "minilua": {
        "fib": """\
function fib(n)
  if n < 2 then
    return n
  end
  return fib(n - 1) + fib(n - 2)
end
print(fib(10))
return fib(7)
""",
        "loops": """\
local s = 0
for i = 0, 5 do
  local j = 0
  while j < 6 do
    j = j + 1
    if j == 2 then
      s = s
    elseif i * j > 12 then
      break
    else
      s = s + i * j
      print(s)
    end
  end
  if i == 4 then
    break
  end
end
for k = 10, 1, -3 do
  print(k)
end
return s
""",
        "shortcircuit": """\
local a = 0
local b, c = f(1) and g(2), f(3) or g(4)
if a == 0 or h(a) > 1 and not k(2) then
  print(a, b, c, nil or a)
end
while a < 5 and (a ~= 3 or f(a)) do
  a = a + 1
end
a, b, c = b, a
return -a
""",
        "scopes": """\
local a = 1
local b, c = a + 1, a
local d = d
h = 4
function g(x)
  local y = x + 1
  do
    local x = y * 2
    y = x + y
  end
  return y + x + (a or 0)
end
for i = 1, 2 do
  print(a, i)
  local a = i * 10
  local i = a
  print(a, i)
end
local a = a + 1
print(a, b, c, d, h, g(a))
return a
""",
        "divzero": "local x = 3\nprint(x)\nreturn x / (x - 3)\n",
        "type": "local b = true\nprint(1)\nreturn b + 1\n",
        "undef": "print(1)\nreturn y + 1\n",
        "stack": "function f(n)\n  return f(n + 1)\nend\nreturn f(0)\n",
        "fuel": "local i = 0\nwhile true do\n  i = i + 1\nend\nreturn i\n",
    },
}

def nested_recursion(lname: str, k: int, n: int) -> str:
    """A program whose f(n) returns f(n - 1) + 1 from inside k nested
    `if n > 0` blocks, and which returns f(n)."""
    if lname == "minilua":
        head, open_, close = "function f(n)\n", "if n > 0 then\n", "end\n"
        ret, tail = "return f(n - 1) + 1\n", f"return 0\nend\nreturn f({n})\n"
    else:
        head = "int f(int n) {\n" if lname == "minic" else "function f(n) {\n"
        main = "int main() {" if lname == "minic" else "function main() {"
        open_, close = "if (n > 0) {\n", "}\n"
        ret, tail = "return f(n - 1) + 1;\n", f"return 0;\n}}\n{main}\nreturn f({n});\n}}\n"
    return head + open_ * k + ret + close * k + tail


def nested_ifs(lname: str, n: int) -> str:
    """A program that prints x from inside n nested `if x < 5` blocks."""
    if lname == "minilua":
        return "local x = 1\n" + "if x < 5 then\n" * n + "print(x)\n" + "end\n" * n
    if lname == "minic":
        head = "int main() {\n  int x = 1;\n"
    else:
        head = "function main() {\n  var x = 1;\n"
    return head + "if (x < 5) {\n" * n + "print(x);\n" + "}\n" * n + "return 0;\n}\n"


def nested_decls(lname: str, n: int) -> str:
    """A program whose every level, n deep, holds `if x > 0` around the
    next level and then a declaration of v<level> = x: a declaration
    after each of n nested blocks."""
    if lname == "minilua":
        opens = "".join("if x > 0 then\n" for _ in range(n))
        closes = "".join(f"end\nlocal v{k} = x\n" for k in reversed(range(n)))
        return f"local x = 1\n{opens}print(x)\n{closes}print(x)\n"
    if lname == "minic":
        head, decl = "int main() {\n  int x = 1;\n", "int"
    else:
        head, decl = "function main() {\n  var x = 1;\n", "var"
    opens = "if (x > 0) {\n" * n
    closes = "".join(f"}}\n{decl} v{k} = x;\n" for k in reversed(range(n)))
    return f"{head}{opens}print(x);\n{closes}return 0;\n}}\n"


def cpu_seconds(fn, *args) -> float:
    """The CPU time of fn(*args), best of 5.  A growth test compares two
    of these taken in one process, so a slower host slows both alike."""
    best = float("inf")
    for _ in range(5):
        start = time.process_time()
        fn(*args)
        best = min(best, time.process_time() - start)
    return best


def nested_whiles(lname: str, n: int) -> str:
    """A program that counts x up to 5 inside n nested `while x < 5`
    loops, then prints it."""
    if lname == "minilua":
        return "local x = 1\n" + "while x < 5 do\n" * n + "x = x + 1\n" + "end\n" * n + "print(x)\n"
    if lname == "minic":
        head = "int main() {\n  int x = 1;\n"
    else:
        head = "function main() {\n  var x = 1;\n"
    return head + "while (x < 5) {\n" * n + "x = x + 1;\n" + "}\n" * n + "print(x);\nreturn 0;\n}\n"


def elseif_chain(n: int) -> str:
    """A MiniLua program whose one `if` has n arms, the last n - 1 of
    them `elseif` arms, and an else; x selects the last arm."""
    arms = "".join(
        f"{'if' if i == 0 else 'elseif'} x == {i} then\n  print({i})\n" for i in range(n)
    )
    return f"local x = {n - 1}\n{arms}else\n  print(x)\nend\n"


EXPR_SHAPES = ("parens", "unary", "binary", "calls")


def nested_expr(lname: str, shape: str, n: int) -> str:
    """A program that prints an expression nested n levels deep around x:
    `((x))` for "parens", `- - x` for "unary", `1 + (1 + (x))` for
    "binary" and `f(f(x))` for "calls", where f returns its argument."""
    opener, closer = {
        "parens": ("(", ")"), "unary": ("- ", ""),
        "binary": ("1 + (", ")"), "calls": ("f(", ")"),
    }[shape]
    expr = opener * n + "x" + closer * n
    if lname == "minilua":
        return f"function f(x)\n  return x\nend\nlocal x = 1\nprint({expr})\n"
    if lname == "minic":
        head = "int f(int x) {\n  return x;\n}\nint main() {\n  int x = 1;\n"
    else:
        head = "function f(x) {\n  return x;\n}\nfunction main() {\n  var x = 1;\n"
    return f"{head}  print({expr});\n  return 0;\n}}\n"


# ---------------------------------------------------------------------------
# Atomic-operand scan: syntactic postcondition of the flattening pass.


def atomization_violations(lang, term) -> list:
    """Expression nodes that still have compound operands or short-circuit
    operators, judged through the language's own classification hooks."""
    from srctrans.terms import iter_subterms

    expr_sort = Atom(f"{lang.schema.name}.ExprL")
    ops = lang.tac
    out = []
    for t in iter_subterms(term):
        if t.sort != expr_sort:
            continue
        cls = ops.classify(t)
        if cls[0] == "shortcircuit":
            out.append(("shortcircuit", t))
        elif cls[0] == "operands":
            for part in cls[1]:
                if not ops.is_atomic(part):
                    out.append(("compound-operand", t))
                    break
    return out


# ---------------------------------------------------------------------------
# Coverage oracle: executed blocks recomputed from interpreter callbacks.


def executed_blocks_oracle(lang, ast, cfg, blocks) -> set:
    """Which block ids an uninstrumented run actually enters.

    Maps each executed item-position node (reported by on_item) to its
    basic block through the statement order shared by item_walk and the
    CFG; empty-body blocks are covered when their body is entered.
    """
    walked = lang.item_walk(ast)
    assert len(walked) == len(cfg.stmt_order), "item order out of sync"
    index_of = {id(node): i for i, node in enumerate(walked)}
    block_of = {n: blk.id for blk in blocks for n in blk.stmts}

    executed: set = set()
    entered_bodies: set = set()
    bodies = _interp_bodies(lang, ast)

    def on_item(node):
        i = index_of.get(id(node))
        if i is not None:
            executed.add(block_of[cfg.stmt_order[i]])

    def on_enter(func):
        b = bodies.get(id(func))
        if b is not None:
            entered_bodies.add(b)

    lang.run(ast, on_item=on_item, on_enter=on_enter)
    for blk in blocks:
        if not blk.stmts and blk.body in entered_bodies:
            executed.add(blk.id)
    return executed


def _interp_bodies(lang, ast) -> dict:
    """id(function node) -> body index, matching adapter.body_paths order."""
    if lang.name == "minilua":
        # body 0 is the chunk itself; functions follow in document order
        out = {id(ast): 0}
        funcs: list = []

        def scan(v):
            if isinstance(v, GV):
                if v.ctor == "FuncStmt":
                    funcs.append(v)
                for a in v.args:
                    scan(a)
            elif isinstance(v, tuple):
                for a in v:
                    scan(a)

        scan(ast)
        for i, f in enumerate(funcs):
            out[id(f)] = i + 1
        return out
    return {id(f): i for i, f in enumerate(ast.args[0])}
