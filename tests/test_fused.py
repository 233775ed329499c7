"""Fused operator closures give what the unfused chain gives.

`runtime.binary` and `runtime.equality` compile a binary operator whose
operands have one of the commonest shapes (a local variable or any
closure, against a local variable, an integer constant or any closure)
to one closure, and `common.expr_stmt` and MiniLua's assignment compile
`x = <expr>` to a local x to one closure, which is also the operator's
when the value is a fused operator.  `Compiler.test` compiles an `and`
or `or` condition of MiniJS or MiniLua to one closure over its
operands' tests.  Each must give the value, or raise the trap, that the
chain of closures it replaces gives, and spend the same fuel: the
chain's operator closure spends its unit, calls each operand's closure,
and then checks the operands and applies the operator's function; a
condition is `truthy` of its value.  That chain is written out here.

The unit cases compile one operator at a time and compare the closures
on every operand kind, at several fuels.  The run cases run small
programs through `lang.run` at every fuel up to the one that completes
them, once as compiled and once with the unfused chain swapped in.
"""

import operator

import pytest

from srctrans.langs import minic, minijs, minilua
from srctrans.langs.base import get_language
from srctrans.runtime import (
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
    for lk, lv in VALUES.items():
        for k in CONSTANTS:
            yield "any_const", var("g"), GV(lit, (k,)), {"g": lv}
        for rk, rv in VALUES.items():
            if lk == "int" or rk == "int":
                yield "any_any", var("g"), var("h"), {"g": lv, "h": rv}
                yield "any_any", var("g"), var("y"), {"g": lv, "y": rv}


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
    assert shapes == {"local_const", "local_local", "any_const", "any_any"}


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

    def test(comp, e):
        code = comp.expr(e)
        if ((e.ctor == "BinE" and e.args[0] in comp.BOOL_OPS)
                or (e.ctor == "UnaryE" and e.args[0] == comp.NOT)):
            return code

        def test(st, env):
            return comp.truthy(code(st, env))

        return test

    stmt = {"AssignStmt": assign_stmt} if lname == "minilua" else {"ExprStmt": expr_stmt}
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
        yield program(lname, "any_const", op, "unbound", "3")
        yield program(lname, "any_any", op, "unbound", "int")


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


@pytest.mark.parametrize("lname", sorted(CONDITIONS))
def test_and_or_conditions_match_the_unfused_chain_at_every_fuel(lname, monkeypatch):
    comp = unit_compiler(lname)
    and_op, or_op = ("&&", "||") if lname == "minijs" else ("and", "or")
    for op, name in ((and_op, "and_test"), (or_op, "or_test")):
        assert comp.test(GV("BinE", (op, var("x"), var("y")))).__name__ == name
    lang = get_language(lname)
    ends = [lang.run(lang.parse(text)).events[-1][1] for text in CONDITIONS[lname]]
    assert ends[-2:] == ["divzero", "undef" if lname == "minijs" else "type"]
    assert_runs_match_the_unfused_chain(lname, CONDITIONS[lname], monkeypatch)
