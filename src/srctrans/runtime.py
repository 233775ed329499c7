"""Shared execution machinery for the bundled interpreters.

Runs are fully deterministic: unknown callees are mocked by a per-run call
counter, integer division truncates toward zero, and every trap is an
ordinary outcome recorded in the trace rather than a crash.

A run compiles the program it runs to Python closures, one block at a
time (Feeley & Lapalme, "Using Closures for Code Generation", 1987): the
first time a block runs, each of its items is compiled into a closure
`(st, env)`, so a loop body is dispatched once, not on every iteration,
and code that runs once costs about what a tree walk would.  The compiler
dispatches on tables keyed by constructor, and decides when it compiles
a node what a tree walk decided each time it visited it: the function of
an operator, whether a callee is user-defined, whether a call hook is
set, and which scope holds a variable.  Closures take the run's `State`
and the scope chain `env` (a list of dicts, innermost last) as arguments
and hold neither, so compiled code holds no reference cycle; nothing
compiled outlives its run.  A closure binds what it uses as default
arguments, one tuple where captured variables would cost a cell each, so
a run allocates fewer objects for the cyclic collector to scan.

A scope is a block's, or a routine's for its parameters, and a
declaration binds in the innermost scope when it runs.  Items run in
order and a loop body gets a new scope each time it runs, so the scope
that holds a name at a point is the innermost enclosing one that
declares the name before that point, and none holds it if none does.
The compiler finds it from the text, and a variable's closure reads
`env[depth][name]` without searching the chain.

Every node a tree walk would visit still costs one unit of fuel, at the
same step, but only where going on could be seen is the balance checked:
before a trace event (`emit`), at a call (`call_user`), at each loop
iteration and before the on_item hook.  `Compiler.run` reports the fuel
trap for a run whose balance is negative, whatever stopped it.  Past the
node that spent the last unit, where a tree walk trapped, a run can go
on only through straight-line code and records nothing, so it gives what
the tree walk gave, though it may compile and start a block the tree
walk never entered.

Where nothing observable can happen between some of a tree walk's steps,
a closure spends their fuel in one: a unary or integer operator whose
operands compiled to constants is run once when it compiles, and if it
runs without a trap its closure is one constant that spends one unit per
node it stands for.  So constants fold in the compile walk, which visits
each node once.  A node the compiler cannot run, such as an unknown
constructor or operator, compiles to a closure that traps when it runs:
compiling never raises.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional


class Trap(Exception):
    """A defined runtime failure; ends the run with a trace event."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


@dataclass(frozen=True)
class RunResult:
    """Observable outcome of one program run."""

    events: tuple
    coverage: dict = field(default_factory=dict)

    def erased(self) -> "RunResult":
        """Drop coverage events; used to compare against unmarked runs."""
        return RunResult(
            tuple(e for e in self.events if e[0] != "cov"), dict(self.coverage)
        )


# A call nested deeper than this ends the run with Trap("stack").
# Interpreted calls still nest on the Python stack, a few frames per call
# and per block and expression level between calls, so a recursion under
# several nested blocks can exhaust Python's stack first (ROADMAP item 5).
MAX_CALL_DEPTH = 100

# Sentinel values: MiniJS's and MiniLua's coverage table `TC`, and the
# coverage array (`cov` in MiniC, `TC.cov` elsewhere).
TC = object()
COV = object()

# What a statement's closure returns: None to go on with the next item,
# BREAK or CONTINUE, or a 1-tuple holding the routine's return value.
BREAK = object()
CONTINUE = object()


def check_int(v) -> int:
    """v itself if it is an integer (not a bool), else Trap("type")."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise Trap("type")
    return v


def trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise Trap("divzero")
    if a >= 0 and b > 0:
        return a // b
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def trunc_mod(a: int, b: int) -> int:
    if a >= 0 and b > 0:
        return a % b
    return a - b * trunc_div(a, b)


def external_value(counter: int, args: list):
    """Mocked return value of an undefined callee; depends only on the
    per-run call counter and the argument summary, never on real state."""
    s = 0
    for a in args:
        if isinstance(a, bool):
            s += 1 if a else 0
        elif isinstance(a, int):
            s += a
        elif isinstance(a, list):
            s += len(a)
    if counter % 3 == 2:
        return (counter + s) % 2 == 0
    return (counter * 7 + s) % 5 - 2


# The integer arithmetic and comparisons all three languages share.
_INT_OPS = {
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
COMPARISONS = frozenset({"<", "<=", ">", ">="})


class State:
    """What one run changes.  `bodies` holds each routine's parameter
    names and compiled body, by id of the routine node."""

    __slots__ = ("comp", "fuel", "events", "cov", "globals", "ext_calls",
                 "depth", "bodies")

    def __init__(self, comp: "Compiler", fuel: int):
        self.comp = comp
        self.fuel = fuel
        self.events: list[tuple] = []
        self.cov: dict[int, bool] = {}
        self.globals: dict[str, object] = {}
        self.ext_calls = 0
        self.depth = 0
        self.bodies: dict[int, tuple] = {}


def emit(st: State, event: tuple) -> None:
    """Record event in the trace, or Trap("fuel") if the fuel has run out."""
    if st.fuel < 0:
        raise Trap("fuel")
    st.events.append(event)


def mark(st: State, idx: int, value):
    """Store to coverage cell idx: a trace event, then the cell's flag, so
    nothing is stored once the fuel has run out."""
    emit(st, ("cov", idx))
    st.cov[idx] = bool(value)
    return value


def call_user(st: State, func, args: list):
    """Call the routine node `func`; its body is compiled on first call.
    With the fuel run out, a call traps before it enters or compiles."""
    if st.fuel < 0:
        raise Trap("fuel")
    if st.depth == MAX_CALL_DEPTH:
        raise Trap("stack")
    comp = st.comp
    routine = st.bodies.get(id(func))
    if routine is None:
        routine = st.bodies[id(func)] = comp.routine(func)
    params, body = routine
    frame = comp.bind(params, args)
    if comp.on_enter is not None:
        comp.on_enter(func)
    st.depth += 1
    signal = body(st, [frame])
    st.depth -= 1
    return comp.void if signal is None else returned(signal)


def returned(signal):
    """The value a routine body's signal returns."""
    if signal is BREAK or signal is CONTINUE:
        # the parsers reject this; only a hand-built tree can hold one
        raise RuntimeError("break or continue outside a loop")
    return signal[0]


class Compiler:
    """Compiles and runs one run of a program.

    A subclass supplies the language:
    - the tables EXPR and STMT (constructor -> compile function) and
      BINOP (operator -> compile function, for the binary operators
      other than the integer ones); a compile function takes the
      compiler and the node and returns the node's closure;
    - `items_of(block)`, `routine_block(func)`, `params(func)` (the
      names of its parameters) and `start(st)` (run the program, return
      its value); `bind(params, args)` gives a callee's first scope, by
      default one argument per parameter or Trap("arity");
    - `render`, `truthy` and `unbound(name)` (the value of a name bound
      nowhere, or a trap); `undeclared(st, name, value)` stores to a name
      bound nowhere, by default a new global;
    - `read_index(base, idx)` and `store_index(base, idx, value)` for
      an index into anything but the coverage array;
    - NOT, its negation operator (every other unary operator is minus),
      BOOL_OPS, the binary operators whose value is always a bool, and
      BUILTINS, the callees it runs itself; `void` is what print and a
      routine that falls off its end return.

    An item's closure spends the item's fuel without checking it;
    `item(node)` compiles one, and `hooked` checks the fuel before the
    on_item hook.
    """

    EXPR: dict[str, Callable] = {}
    STMT: dict[str, Callable] = {}
    BINOP: dict[str, Callable] = {}
    BOOL_OPS: frozenset = frozenset()
    BUILTINS: dict[str, Callable] = {}
    NOT = "!"
    void = None
    render: Callable
    truthy: Callable

    def __init__(self, funcs: dict, on_item: Optional[Callable] = None,
                 on_enter: Optional[Callable] = None):
        self.funcs = funcs
        self.on_item = on_item
        self.on_enter = on_enter
        # while compiling: the names each scope has bound so far, innermost
        # last
        self.scopes: list[frozenset] = []

    def run(self, fuel: int) -> RunResult:
        st = State(self, fuel)
        try:
            emit(st, ("return", self.render(self.start(st))))
        except Exception as exc:
            # with the fuel run out, whatever stopped the run came after
            # the step where a tree walk trapped
            if st.fuel >= 0 and not isinstance(exc, Trap):
                raise
            st.events.append(("trap", "fuel" if st.fuel < 0 else exc.kind))
        return RunResult(tuple(st.events), dict(st.cov))

    def main(self):
        main = self.funcs.get("main")
        if main is None:
            raise Trap("nomain")
        return main

    @staticmethod
    def bind(params: list, args: list) -> dict:
        if len(args) != len(params):
            raise Trap("arity")
        return dict(zip(params, args))

    @staticmethod
    def unbound(name: str):
        raise Trap("undef")

    @staticmethod
    def undeclared(st: State, name: str, value) -> None:
        st.globals[name] = value

    # -- compiling

    def expr(self, e) -> Callable:
        compile_ = self.EXPR.get(e.ctor)
        return _traps("expr") if compile_ is None else compile_(self, e)

    def stmt(self, s, node=None) -> Callable:
        """s's closure; the on_item hook gets `node`, by default s."""
        compile_ = self.STMT.get(s.ctor)
        code = _traps("stmt") if compile_ is None else compile_(self, s)
        if self.on_item is None:
            return code
        return self.hooked(s if node is None else node, code)

    item = stmt

    def hooked(self, node, code: Callable) -> Callable:
        """code, run after on_item(node) when the run has that hook."""
        if self.on_item is None:
            return code

        def hooked(st, env, on_item=self.on_item, node=node, code=code):
            if st.fuel < 0:
                raise Trap("fuel")
            on_item(node)
            return code(st, env)

        return hooked

    def test(self, e) -> Callable:
        """A closure that gives the truth of condition e."""
        code = self.expr(e)
        if ((e.ctor == "BinE" and e.args[0] in self.BOOL_OPS)
                or (e.ctor == "UnaryE" and e.args[0] == self.NOT)):
            return code

        def test(st, env, truthy=self.truthy, code=code):
            return truthy(code(st, env))

        return test

    def declare(self, name: str) -> None:
        self.scopes[-1] = self.scopes[-1] | {name}

    def resolve(self, name: str) -> Optional[int]:
        """The index in `env` of the scope that holds name at this point,
        or None if no scope does."""
        scopes = self.scopes
        for depth in range(-1, -len(scopes) - 1, -1):
            if name in scopes[depth]:
                return depth
        return None

    def routine(self, func) -> tuple[list, Callable]:
        """func's parameter names and its body's closure."""
        params = self.params(func)
        self.scopes = [frozenset(params)]
        return params, self.block(self.routine_block(func), False)

    def block(self, block, new_scope: bool = True) -> Callable:
        """A closure that runs block's items, in a new scope unless
        new_scope is False; the items are compiled when it first runs."""
        # `outer` holds the names bound where the block starts; `code` is
        # filled the first time the block runs
        def run(st, env, comp=self, items=self.items_of(block), new_scope=new_scope,
                outer=tuple(self.scopes), code=[]):
            if not code:
                comp.scopes = [*outer, frozenset()] if new_scope else list(outer)
                code.extend(map(comp.item, items))
            if new_scope:
                env = env + [{}]
            for c in code:
                signal = c(st, env)
                if signal is not None:
                    return signal
            return None

        return run

    def target(self, lhs) -> Callable:
        """A closure (st, env, value) that assigns to lhs and returns the
        value assigned."""
        if lhs.ctor == "VarE":
            name = lhs.args[0].args[0]
            depth = self.resolve(name)
            if depth is not None:
                def store(st, env, value, depth=depth, name=name):
                    env[depth][name] = value
                    return value

                return store

            def store_undeclared(st, env, value, undeclared=self.undeclared, name=name):
                undeclared(st, name, value)
                return value

            return store_undeclared
        if lhs.ctor == "IndexE":
            def store_at(st, env, value, base_c=self.expr(lhs.args[0]),
                         idx_c=self.expr(lhs.args[1]), store_index=self.store_index):
                base = base_c(st, env)
                idx = idx_c(st, env)
                if type(idx) is not int:
                    check_int(idx)
                if base is COV:
                    return mark(st, idx, value)
                return store_index(base, idx, value)

            return store_at

        def bad_target(st, env, value):
            raise Trap("lhs")

        return bad_target


# ---------------------------------------------------------------------------
# Expressions every language has.  Each closure first spends its node's
# fuel, and none checks it.

def _traps(kind: str) -> Callable:
    """The closure of a node the compiler has no arm for."""
    def traps(st, env, kind=kind):
        st.fuel -= 1
        raise Trap(kind)

    return traps


def literal(comp: Compiler, e) -> Callable:
    """A literal whose value is its payload."""
    return constant(e.args[0])


def constant(value, fuel: int = 1) -> Callable:
    """A closure that spends `fuel` units and gives value: a folded
    constant spends the fuel of every node it stands for in one step."""
    def const(st, env, value=value, fuel=fuel):
        st.fuel -= fuel
        return value

    return const


# The code of every closure `constant` makes; its defaults are
# (value, fuel).
_CONSTANT = constant(None).__code__


def _folded(code: Callable, *operands: Callable) -> Callable:
    """code, or one constant if each operand is a constant and code runs
    without a trap on them.

    A tree walk spends one unit of fuel on the node and on each node of
    its operands, with nothing observable in between, so the constant
    spends them all at once.
    """
    fuel = 1
    for operand in operands:
        if operand.__code__ is not _CONSTANT:
            return code
        fuel += operand.__defaults__[1]
    try:
        value = code(State(None, fuel), None)
    except Trap:
        return code
    return constant(value, fuel)


def nil_literal(comp: Compiler, e) -> Callable:
    return constant(None)


def variable(comp: Compiler, e) -> Callable:
    name = e.args[0].args[0]
    depth = comp.resolve(name)
    if depth is not None:
        def variable(st, env, depth=depth, name=name):
            st.fuel -= 1
            return env[depth][name]

        return variable

    def global_variable(st, env, name=name, unbound=comp.unbound):
        st.fuel -= 1
        if name in st.globals:
            return st.globals[name]
        return unbound(name)

    return global_variable


def index(comp: Compiler, e) -> Callable:
    def index(st, env, base_c=comp.expr(e.args[0]), idx_c=comp.expr(e.args[1]),
              read_index=comp.read_index):
        st.fuel -= 1
        base = base_c(st, env)
        idx = idx_c(st, env)
        if type(idx) is not int:
            check_int(idx)
        if base is COV:
            return st.cov.get(idx, False)
        return read_index(base, idx)

    return index


def member(comp: Compiler, e) -> Callable:
    """`TC.cov`, the coverage array; any other member traps."""
    def member(st, env, base_c=comp.expr(e.args[0]), is_cov=e.args[1] == "cov"):
        st.fuel -= 1
        if base_c(st, env) is TC and is_cov:
            return COV
        raise Trap("member")

    return member


def call(comp: Compiler, e) -> Callable:
    """A call of a user routine, print, a builtin or a mocked callee."""
    name = e.args[0].args[0]
    arg_cs = [comp.expr(a) for a in e.args[1]]
    func = comp.funcs.get(name)
    if func is not None:
        def call_routine(st, env, func=func, arg_cs=arg_cs):
            st.fuel -= 1
            return call_user(st, func, [c(st, env) for c in arg_cs])

        return call_routine
    if name == "print":
        def call_print(st, env, arg_cs=arg_cs, render=comp.render, void=comp.void):
            st.fuel -= 1
            emit(st, ("print", " ".join(map(render, [c(st, env) for c in arg_cs]))))
            return void

        return call_print
    builtin = comp.BUILTINS.get(name)
    if builtin is not None:
        def call_builtin(st, env, builtin=builtin, arg_cs=arg_cs):
            st.fuel -= 1
            return builtin([c(st, env) for c in arg_cs])

        return call_builtin

    def call_external(st, env, name=name, arg_cs=arg_cs, render=comp.render):
        st.fuel -= 1
        args = [c(st, env) for c in arg_cs]
        emit(st, ("call", name, tuple(map(render, args))))
        value = external_value(st.ext_calls, args)
        st.ext_calls += 1
        return value

    return call_external


def unary(comp: Compiler, e) -> Callable:
    op, operand = e.args
    code = comp.expr(operand)
    if op == comp.NOT:
        def negation(st, env, code=code, truthy=comp.truthy):
            st.fuel -= 1
            return not truthy(code(st, env))

        return _folded(negation, code)

    def minus(st, env, code=code):
        st.fuel -= 1
        v = code(st, env)
        if type(v) is not int:
            check_int(v)
        return -v

    return _folded(minus, code)


def binary(comp: Compiler, e) -> Callable:
    op, lhs, rhs = e.args
    own = comp.BINOP.get(op)
    if own is not None:
        return own(comp, e)
    a = comp.expr(lhs)
    b = comp.expr(rhs)
    fn = _INT_OPS.get(op)
    if fn is None:
        def unknown_op(st, env, a=a, b=b):
            st.fuel -= 1
            check_int(a(st, env))
            check_int(b(st, env))
            raise Trap("op")

        return unknown_op

    if b.__code__ is _CONSTANT and type(b.__defaults__[0]) is int:
        # a constant integer operand spends its fuel where its closure
        # would have run
        def int_op_constant(st, env, a=a, fn=fn, k=b.__defaults__[0],
                            fuel=b.__defaults__[1]):
            st.fuel -= 1
            x = a(st, env)
            st.fuel -= fuel
            if type(x) is not int:
                check_int(x)
            return fn(x, k)

        return _folded(int_op_constant, a, b)

    def int_op(st, env, a=a, b=b, fn=fn):
        st.fuel -= 1
        x = a(st, env)
        y = b(st, env)
        if type(x) is not int or type(y) is not int:
            check_int(x)
            check_int(y)
        return fn(x, y)

    return _folded(int_op, a, b)


def and_value(comp: Compiler, e) -> Callable:
    """`and` that returns an operand: the left one if it is falsy."""
    def and_value(st, env, a=comp.expr(e.args[1]), b=comp.expr(e.args[2]),
                  truthy=comp.truthy):
        st.fuel -= 1
        left = a(st, env)
        return b(st, env) if truthy(left) else left

    return and_value


def or_value(comp: Compiler, e) -> Callable:
    """`or` that returns an operand: the left one if it is truthy."""
    def or_value(st, env, a=comp.expr(e.args[1]), b=comp.expr(e.args[2]),
                 truthy=comp.truthy):
        st.fuel -= 1
        left = a(st, env)
        return left if truthy(left) else b(st, env)

    return or_value


def equality(equal: Callable) -> Callable:
    """The compile function of `==` and its negation for a language whose
    equality never traps; equal(a, b) decides it."""

    def compile_(comp: Compiler, e) -> Callable:
        op, lhs, rhs = e.args
        a = comp.expr(lhs)
        b = comp.expr(rhs)
        if op == "==":
            def same(st, env, a=a, b=b, equal=equal):
                st.fuel -= 1
                return equal(a(st, env), b(st, env))

            return same

        def differs(st, env, a=a, b=b, equal=equal):
            st.fuel -= 1
            return not equal(a(st, env), b(st, env))

        return differs

    return compile_


EXPRESSIONS = {
    "VarE": variable,
    "IndexE": index,
    "CallE": call,
    "UnaryE": unary,
    "BinE": binary,
}
