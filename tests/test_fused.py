"""Fused closures give what the unfused chain gives.

`runtime.binary` and `runtime.equality` compile a binary operator whose
operands have one of the commonest shapes (a local variable or any
closure, against a local variable, an integer constant or any closure)
to one closure, and `common.expr_stmt` and MiniLua's assignment and
`local x = <expr>` compile the store of a value to a local x to one
closure, which is also the operator's when the value is a fused
operator.  A statement that stores a literal to a
literal index of a global, or of a global's member, as every coverage
marker does, is one closure (`Compiler.constant_store`).
`Compiler.test` compiles an `and` or `or` condition to one closure over
its operands' tests, and a constant condition to a constant.  Each must
give the value, or raise the trap, that the chain of closures it
replaces gives, and spend the same fuel: the chain's operator closure
spends its unit, calls each operand's closure, and then checks the
operands and applies the operator's function; a condition is `truthy`
of its value.  That chain is written out here.

The unit cases compile one operator at a time and compare the closures
on every operand kind, at several fuels.  The run cases run small
programs through `lang.run` at every fuel up to the one that completes
them, once as compiled and once with the unfused chain swapped in; they
include one loop per language that the testcov pass instrumented.
Every shape must be made by compiling at least one of them.
"""

import operator

import pytest

from srctrans.langs import minic, minijs, minilua
from srctrans.langs.base import get_language
from srctrans.passes.testcov import testcov as cov_pass
from srctrans.runtime import (
    _SHAPES,
    Compiler,
    State,
    Trap,
    check_int,
    local_assignment,
    scope,
    trunc_div,
    trunc_mod,
)
from srctrans.schema import GenericValue as GV

INT_FNS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": trunc_div,
    "%": trunc_mod,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
MODULES = {"minic": minic, "minijs": minijs, "minilua": minilua}
# each language's equality, and its inequality operator
EQUAL = {"minic": minic._equal, "minijs": minijs._same_value, "minilua": minilua._same_value}
NOT_EQUAL = {"minic": "!=", "minijs": "!=", "minilua": "~="}
LITERAL = {"minic": "IntLit", "minijs": "NumLit", "minilua": "NumLit"}
FUELS = (0, 1, 2, 3, 10)


def ops(lname: str) -> list[str]:
    return [*INT_FNS, "==", NOT_EQUAL[lname]]


# -- the unfused chain

def unfused_int_op(fn, a, b):
    def int_op(st, env):
        st.fuel -= 1
        x = a(st, env)
        y = b(st, env)
        check_int(x)
        check_int(y)
        return fn(x, y)

    return int_op


def unfused_equality(equal, same, a, b):
    def equality(st, env):
        st.fuel -= 1
        return equal(a(st, env), b(st, env)) == same

    return equality


def unfused(lname: str, op: str, a, b):
    if op in INT_FNS:
        return unfused_int_op(INT_FNS[op], a, b)
    return unfused_equality(EQUAL[lname], op == "==", a, b)


# -- unit cases

def unit_compiler(lname: str) -> Compiler:
    """The language's compiler, with x bound in an outer scope and y in
    the innermost one; g and h are globals."""
    cls = MODULES[lname]._Compiler
    comp = cls.__new__(cls)
    Compiler.__init__(comp, {})
    comp.scopes = [scope(("x",)), scope(("y",))]
    return comp


def var(name: str) -> GV:
    return GV("VarE", (GV("Ident", (name,)),))


UNBOUND = object()
VALUES = {
    "int": 7,
    "negative": -7,
    "zero": 0,
    "bool": True,
    "nil": None,
    "array": [1, 2],
    "unbound": UNBOUND,
}
CONSTANTS = (3, -3, 0)


def operand_cases(lname: str):
    """(shape, left node, right node, the value of each name)."""
    lit = LITERAL[lname]
    bound = {k: v for k, v in VALUES.items() if v is not UNBOUND}
    for lk, lv in bound.items():
        for k in CONSTANTS:
            yield "local_const", var("x"), GV(lit, (k,)), {"x": lv}
        for rk, rv in [*bound.items(), ("int", 7)]:
            if lk == "int" or rk == "int":
                yield "local_local", var("x"), var("y"), {"x": lv, "y": rv}
        for rk, rv in VALUES.items():
            if lk == "int" or rk == "int":
                yield "local_any", var("x"), var("g"), {"x": lv, "g": rv}
    for lk, lv in VALUES.items():
        for k in CONSTANTS:
            yield "any_const", var("g"), GV(lit, (k,)), {"g": lv}
        for rk, rv in VALUES.items():
            if lk == "int" or rk == "int":
                yield "any_any", var("g"), var("h"), {"g": lv, "h": rv}
                yield "any_local", var("g"), var("y"), {"g": lv, "y": rv}


def outcome(code, values: dict, fuel: int):
    """What code gives on these values at this fuel, and the fuel left."""
    comp = Compiler({})
    st = State(comp, fuel)
    st.globals = {n: v for n, v in values.items() if n in ("g", "h") and v is not UNBOUND}
    env = [{"x": values.get("x")}, {"y": values.get("y")}]
    try:
        value = code(st, env)
    except Trap as trap:
        return ("trap", trap.kind), st.fuel
    return ("value", type(value), value), st.fuel


@pytest.mark.parametrize("lname", ["minic", "minijs", "minilua"])
def test_fused_closures_match_the_unfused_chain(lname):
    comp = unit_compiler(lname)
    shapes = set()
    for op in ops(lname):
        for shape, lhs, rhs, values in operand_cases(lname):
            code = comp.expr(GV("BinE", (op, lhs, rhs)))
            assert code.__name__ == shape, (op, shape)
            shapes.add(shape)
            chain = unfused(lname, op, comp.expr(lhs), comp.expr(rhs))
            for fuel in FUELS:
                assert outcome(code, values, fuel) == outcome(chain, values, fuel), (
                    op, shape, values, fuel)
    assert shapes == set(_SHAPES)


def unfused_assignment(depth: int, name: str, value_c, fuel: int):
    def assign(st, env):
        st.fuel -= fuel
        env[depth][name] = value_c(st, env)

    return assign


def stored(code, values: dict, fuel: int):
    """What the statement code does on these values at this fuel: its
    outcome, the fuel left and the value it leaves in the local r."""
    comp = Compiler({})
    st = State(comp, fuel)
    st.globals = {n: v for n, v in values.items() if n in ("g", "h") and v is not UNBOUND}
    env = [{"x": values.get("x")}, {"y": values.get("y"), "r": "unset"}]
    try:
        code(st, env)
    except Trap as trap:
        return ("trap", trap.kind), st.fuel, env[1]["r"]
    return "done", st.fuel, env[1]["r"]


@pytest.mark.parametrize("lname", ["minic", "minijs", "minilua"])
def test_assignments_of_fused_values_match_the_unfused_chain(lname):
    """`r = <fused operator>` is one closure, which stores what the
    assignment of the operator's closure stores, or traps where it traps
    with the same fuel left.  A statement spends 1 unit above its value
    in MiniLua and 2 (the statement and the assignment) elsewhere."""
    comp = unit_compiler(lname)
    for op in ops(lname):
        for shape, lhs, rhs, values in operand_cases(lname):
            value_c = comp.expr(GV("BinE", (op, lhs, rhs)))
            for unit in (1, 2):
                code = local_assignment(-1, "r", value_c, unit)
                assert code.__name__ == shape + "_store", (op, shape)
                chain = unfused_assignment(-1, "r", value_c, unit)
                for fuel in FUELS:
                    assert stored(code, values, fuel) == stored(chain, values, fuel), (
                        op, shape, values, unit, fuel)


@pytest.mark.parametrize("lname", ["minic", "minijs", "minilua"])
def test_folded_constants_match_the_unfused_chain(lname):
    """A constant left operand makes an any-constant closure, which folds
    to one constant when it runs without a trap."""
    comp = unit_compiler(lname)
    lit = LITERAL[lname]
    for op in ops(lname):
        for j in (7, -7, 0):
            for k in CONSTANTS:
                lhs, rhs = GV(lit, (j,)), GV(lit, (k,))
                code = comp.expr(GV("BinE", (op, lhs, rhs)))
                chain = unfused(lname, op, comp.expr(lhs), comp.expr(rhs))
                for fuel in FUELS:
                    assert outcome(code, {}, fuel) == outcome(chain, {}, fuel), (op, j, k)


# -- run cases

def unfused_compiler(lname: str):
    """The language's compiler with every fused closure replaced by the
    unfused chain."""
    base = MODULES[lname]._Compiler

    def binary(comp, e):
        op, lhs, rhs = e.args
        own = comp.BINOP.get(op)
        if own is not None:
            return own(comp, e)
        return unfused(lname, op, comp.expr(lhs), comp.expr(rhs))

    def equality(comp, e):
        op, lhs, rhs = e.args
        return unfused(lname, op, comp.expr(lhs), comp.expr(rhs))

    def expr_stmt(comp, s):
        def expr_stmt(st, env, code=comp.expr(s.args[0])):
            st.fuel -= 1
            code(st, env)

        return expr_stmt

    def assign_stmt(comp, s):
        values = [comp.expr(e) for e in s.args[1].args[0]]
        targets = [comp.target(t) for t in s.args[0].args[0]]

        def assign(st, env):
            st.fuel -= 1
            vs = [c(st, env) for c in values]
            for i, store in enumerate(targets):
                store(st, env, vs[i] if i < len(vs) else None)

        return assign

    def local_stmt(comp, s):
        names, opt = s.args
        names = [n.args[0] for n in names.args[0]]
        values = [comp.expr(e) for e in opt.args[0].args[0]] if opt.ctor == "SomeExprs" else []
        for name in names:
            comp.declare(name)

        def local(st, env):
            st.fuel -= 1
            vs = [c(st, env) for c in values]
            for i, name in enumerate(names):
                env[-1][name] = vs[i] if i < len(vs) else None

        return local

    def test(comp, e):
        code = comp.expr(e)
        if ((e.ctor == "BinE" and e.args[0] in comp.BOOL_OPS)
                or (e.ctor == "UnaryE" and e.args[0] == comp.NOT)):
            return code

        def test(st, env):
            return comp.truthy(code(st, env))

        return test

    if lname == "minilua":
        stmt = {"AssignStmt": assign_stmt, "LocalStmt": local_stmt}
    else:
        stmt = {"ExprStmt": expr_stmt}
    return type("Unfused", (base,), {
        "EXPR": {**base.EXPR, "BinE": binary},
        "BINOP": {**base.BINOP, "==": equality, NOT_EQUAL[lname]: equality},
        "STMT": {**base.STMT, **stmt},
        "test": test,
    })


# The source of each operand kind's value, with its type in MiniC: x and
# y are declared with it, and f and g return it.
RUN_VALUES = {
    "minic": {"int": ("int", "7"), "negative": ("int", "-7"), "zero": ("int", "0"),
              "bool": ("bool", "true"), "array": ("int[]", "{1, 2}")},
    "minijs": {"int": "7", "negative": "-7", "zero": "0", "bool": "true",
               "nil": "undefined", "array": "[1, 2]"},
    "minilua": {"int": "7", "negative": "-7", "zero": "0", "bool": "true", "nil": "nil"},
}


def program(lname: str, shape: str, op: str, left: str, right: str) -> str:
    """A program that stores `<left> op <right>`, for the shape, to a
    local with an assignment statement, and prints it; "unbound" on the
    left is a global that nothing binds."""
    vals = RUN_VALUES[lname]
    local_left, local_right = shape.startswith("local"), shape.endswith("local")
    lhs = "u" if left == "unbound" else "x" if local_left else "f()"
    rhs = right if shape.endswith("const") else "y" if local_right else "g()"
    expr = f"{lhs} {op} {rhs}"
    left = "int" if left == "unbound" else left
    right = "int" if shape.endswith("const") else right
    if lname == "minic":
        (lt, lv), (rt, rv) = vals[left], vals[right]
        funcs = (f"{lt} f() {{\n  {lt} v = {lv};\n  return v;\n}}\n"
                 f"{rt} g() {{\n  {rt} v = {rv};\n  return v;\n}}\n")
        return funcs + (f"int main() {{\n  {lt} x = {lv};\n  {rt} y = {rv};\n  int r = 0;\n"
                        f"  r = {expr};\n  print(r);\n  print({expr});\n  return 0;\n}}\n")
    if lname == "minijs":
        funcs = (f"function f() {{\n  return {vals[left]};\n}}\n"
                 f"function g() {{\n  return {vals[right]};\n}}\n")
        return funcs + (f"function main() {{\n  var x = {vals[left]};\n  var y = {vals[right]};\n"
                        f"  var r = 0;\n  r = {expr};\n  print(r);\n  print({expr});\n"
                        f"  return 0;\n}}\n")
    return (f"function f()\n  return {vals[left]}\nend\n"
            f"function g()\n  return {vals[right]}\nend\n"
            f"local x = {vals[left]}\nlocal y = {vals[right]}\nlocal r = 0\n"
            f"r = {expr}\nprint(r)\nprint({expr})\n")


def run_cases(lname: str):
    kinds = list(RUN_VALUES[lname])
    for op in ops(lname):
        for left in kinds:
            for k in ("3", "-3", "0"):
                yield program(lname, "local_const", op, left, k)
                yield program(lname, "any_const", op, left, k)
            yield program(lname, "local_local", op, left, "int")
            yield program(lname, "local_local", op, "int", left)
            yield program(lname, "any_any", op, left, "zero")
            yield program(lname, "any_any", op, "negative", left)
            yield program(lname, "local_any", op, left, "int")
            yield program(lname, "local_any", op, "int", left)
            yield program(lname, "any_local", op, left, "int")
            yield program(lname, "any_local", op, "int", left)
        yield program(lname, "any_const", op, "unbound", "3")
        yield program(lname, "any_any", op, "unbound", "int")
        yield program(lname, "any_local", op, "unbound", "int")


def assert_runs_match_the_unfused_chain(lname: str, texts, monkeypatch):
    """Each program gives the same result as compiled and with the
    unfused chain, at every fuel from 0 to the one that completes it."""
    lang = get_language(lname)
    module = MODULES[lname]
    fused, reference = module._Compiler, unfused_compiler(lname)
    for text in texts:
        ast = lang.parse(text)
        fuel = 0
        while True:
            monkeypatch.setattr(module, "_Compiler", reference)
            expected = lang.run(ast, fuel)
            monkeypatch.setattr(module, "_Compiler", fused)
            assert lang.run(ast, fuel) == expected, (text, fuel)
            if expected.events[-1] != ("trap", "fuel"):
                break
            fuel += 1


@pytest.mark.parametrize("lname", ["minic", "minijs", "minilua"])
def test_runs_match_the_unfused_chain_at_every_fuel(lname, monkeypatch):
    assert_runs_match_the_unfused_chain(lname, run_cases(lname), monkeypatch)


# Conditions built of `and` and `or` in if, while and (MiniJS) for:
# nested, over operands of every truth, with a print call as the left
# operand, and with a right operand that traps.
CONDITIONS = {
    "minijs": [
        """\
function main() {
  var i = 0;
  var a = [1];
  var u = undefined;
  while (i < 6 && (i != 4 || i > 9) || i == 7 && i > 0) {
    if ((i % 2 == 0 || i == 3) && !(i == 2) && (i > 0 || i == 0)) {
      print(i);
    }
    if (a && u || i && a) {
      print(10 + i);
    }
    i = i + 1;
  }
  for (i = 0; i < 3 && (u || a); i = i + 1) {
    print(i);
  }
  return i;
}
""",
        """\
function main() {
  var i = 0;
  while (print(i) || i < 3) {
    if (print(i + 10) && i > 100) {
      print(0);
    }
    if (print(i + 20) || i == 1) {
      print(1);
    }
    i = i + 1;
  }
  return i;
}
""",
        """\
function main() {
  var i = 0;
  while (i < 3 || i / 0 > 1) {
    i = i + 1;
  }
  return i;
}
""",
        """\
function main() {
  var i = 0;
  if (i == 1 || print(i) || i == 0 && u > 1) {
    print(1);
  }
  return i;
}
""",
    ],
    "minilua": [
        """\
local i = 0
local a = true
local u = nil
while i < 6 and (i ~= 4 or i > 9) or i == 7 and i > 0 do
  if (i % 2 == 0 or i == 3) and not (i == 2) and (i > 0 or i == 0) then
    print(i)
  elseif a and u or i and a then
    print(10 + i)
  end
  i = i + 1
end
return i
""",
        """\
local i = 0
while print(i) or i < 3 do
  if print(i + 10) and i > 100 then
    print(0)
  end
  if print(i + 20) or i == 1 then
    print(1)
  end
  i = i + 1
end
return i
""",
        """\
local i = 0
while i < 3 or i / 0 > 1 do
  i = i + 1
end
return i
""",
        """\
local i = 0
if i == 1 or print(i) or i == 0 and 1 + nil > 0 then
  print(1)
end
return i
""",
    ],
}


CONDITIONS["minic"] = [
    """\
int main() {
  int i = 0;
  int[] a = {1};
  while (i < 6 && (i != 4 || i > 9) || i == 7 && i > 0) {
    if ((i % 2 == 0 || i == 3) && !(i == 2) && (i > 0 || i == 0)) {
      print(i);
    }
    if (i && true || false && i) {
      print(10 + i);
    }
    i = i + 1;
  }
  for (i = 0; i < 3 && (false || i >= 0); i = i + 1) {
    print(i);
  }
  while (i > 0 && a) {
    i = i - 1;
  }
  return i;
}
""",
    """\
int main() {
  int i = 0;
  while (print(i) || i < 3) {
    if (print(i + 10) && i > 100) {
      print(0);
    }
    if (print(i + 20) || i == 1) {
      print(1);
    }
    i = i + 1;
  }
  return i;
}
""",
    """\
int main() {
  int i = 0;
  while (i < 3 || i / 0 > 1) {
    i = i + 1;
  }
  return i;
}
""",
    """\
int main() {
  int i = 0;
  if (i == 1 || print(i) || i == 0 && u > 1) {
    print(1);
  }
  return i;
}
""",
]


@pytest.mark.parametrize("lname", sorted(CONDITIONS))
def test_and_or_conditions_match_the_unfused_chain_at_every_fuel(lname, monkeypatch):
    comp = unit_compiler(lname)
    and_op, or_op = ("and", "or") if lname == "minilua" else ("&&", "||")
    for op, name in ((and_op, "and_test"), (or_op, "or_test")):
        assert comp.test(GV("BinE", (op, var("x"), var("y")))).__name__ == name
    lang = get_language(lname)
    ends = [lang.run(lang.parse(text)).events[-1][1] for text in CONDITIONS[lname]]
    assert ends[-2:] == ["divzero", "type" if lname == "minilua" else "undef"]
    assert_runs_match_the_unfused_chain(lname, CONDITIONS[lname], monkeypatch)


# A loop nest with a constant condition, `and` and `or`, and `local j = 0`
# (MiniLua), whose every block the testcov pass marks with `cov[i] = true`.
LOOPS = {
    "minic": """\
int main() {
  int acc = 1;
  int i = 0;
  for (i = 0; i < 3; i = i + 1) {
    int j = 0;
    while (true) {
      j = j + 1;
      if (j > 3) {
        break;
      }
      if (j % 2 == 0 && i > 0 || j == 1) {
        continue;
      }
      acc = i * j + acc;
    }
  }
  print(acc);
  return acc;
}
""",
    "minijs": """\
function main() {
  var acc = 1;
  var i = 0;
  for (i = 0; i < 3; i = i + 1) {
    var j = 0;
    while (true) {
      j = j + 1;
      if (j > 3) {
        break;
      }
      if (j % 2 == 0 && i > 0 || j == 1) {
        continue;
      }
      acc = i * j + acc;
    }
  }
  print(acc);
  return acc;
}
""",
    "minilua": """\
local acc = 1
for i = 0, 2 do
  local j = 0
  while true do
    j = j + 1
    if j > 3 then
      break
    end
    if not (j % 2 == 0 and i > 0 or j == 1) then
      acc = i * j + acc
    end
  end
end
print(acc)
return acc
""",
}

# Literal stores to a literal index that are not coverage markers: a
# global array, a flag that is not a bool, and a base or member that traps.
CONSTANT_STORES = {
    "minic": [
        "int main() {\n  cov[2] = 5;\n  cov[3] = false;\n  print(cov[2], cov[3]);\n"
        "  return 0;\n}\n",
        "int main() {\n  x[0] = 1;\n  return 0;\n}\n",
        "int main() {\n  int[] a = {1, 2};\n  a[1] = 7;\n  print(a[1]);\n  return 0;\n}\n",
    ],
    "minijs": [
        "function main() {\n  g = [1, 2];\n  g[1] = 7;\n  g[2] = 8;\n  print(g);\n"
        "  g[5] = 1;\n  return 0;\n}\n",
        "function main() {\n  TC.other[0] = true;\n  return 0;\n}\n",
        "function main() {\n  TC[0] = true;\n  return 0;\n}\n",
        "function main() {\n  u[0] = true;\n  return 0;\n}\n",
        "function main() {\n  TC.cov[4] = 0;\n  print(TC.cov[4]);\n  return 0;\n}\n",
    ],
    "minilua": [
        "g = 5\ng[1] = 2\n",
        "TC.other[1] = true\n",
        "u[1] = true\n",
        "TC.cov[4] = 0\nprint(TC.cov[4])\n",
    ],
}


def instrumented(lname: str, text: str) -> str:
    lang = get_language(lname)
    term, markers = cov_pass(lang.decompose(lang.parse(text)), lang)
    assert markers > 5
    return lang.pretty(lang.recompose(term))


@pytest.mark.parametrize("lname", sorted(LOOPS))
def test_instrumented_loops_match_the_unfused_chain_at_every_fuel(lname, monkeypatch):
    lang = get_language(lname)
    text = instrumented(lname, LOOPS[lname])
    result = lang.run(lang.parse(text))
    assert result.events[-1][0] == "return" and len(result.coverage) > 5
    assert_runs_match_the_unfused_chain(lname, [text, *CONSTANT_STORES[lname]], monkeypatch)


def made_closures(lname: str, texts) -> set[str]:
    """The name of every closure that compiling texts makes as they run
    with the default fuel: each item's closure and, through their
    default arguments, every closure it holds."""
    lang = get_language(lname)
    module = MODULES[lname]
    base = module._Compiler
    made = []

    class Recording(base):
        def item(self, item):
            code = base.item(self, item)
            made.append(code)
            return code

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_Compiler", Recording)
        for text in texts:
            lang.run(lang.parse(text))
    names, seen = set(), set()
    while made:
        part = made.pop()
        if id(part) in seen:
            continue
        seen.add(id(part))
        if isinstance(part, (list, tuple)):
            made.extend(part)
        elif hasattr(part, "__code__"):
            names.add(part.__code__.co_name)
            made.extend(part.__defaults__ or ())
    return names


def test_every_fused_shape_is_made_by_a_program_here():
    """A shape of `runtime._SHAPES`, its store, or the constant store
    that no program here makes has no test above, and no caller."""
    made = set()
    for lname in MODULES:
        texts = [*run_cases(lname), *CONDITIONS[lname], instrumented(lname, LOOPS[lname]),
                 *CONSTANT_STORES[lname]]
        made |= made_closures(lname, texts)
    shapes = {name for shape in _SHAPES for name in (shape, shape + "_store")}
    assert shapes | {"constant_store"} <= made, sorted(shapes - made)
