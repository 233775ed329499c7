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

A scope is a routine's, for its parameters, or a block's whose own items
declare, and a declaration binds in the innermost scope when it runs; a
block that declares nothing has no scope.  Items run in order and a
loop body gets a new scope each time it runs, so the scope that holds a
name at a point is the innermost enclosing one that declares the name
before that point, and none holds it if none does.  The compiler finds
it from the text, and a variable's closure reads `env[depth][name]`
without searching the chain.

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

The commonest shapes compile to one fused closure where a chain of
closures would call one per node (Ertl & Gregg's superinstructions): an
integer operator, `==` or `!=` whose operands are a local variable or
any closure, against a local variable, an integer constant or any
closure, with the operator written inline; the store of a value to a
local x (`local_assignment`), with the operator if the value is one of
those; a statement that stores a literal to a literal index of a global
or of a global's member, as every coverage marker does
(`Compiler.constant_store`), with the lookups inline; and a condition
that is an `and` or `or` (`Compiler.JUNCTIONS`), over its operands'
tests, or a constant.  A fused closure spends the fuel of every node it
stands for before the first point where it can trap, exactly as the
chain spends it: reading a local variable cannot trap, so a closure
whose operands are locals and constants spends all its fuel at once,
and an operand that is a closure runs where the chain runs it, after
the units of the nodes before it and before those after it.  No fused
closure compares the fuel; a coverage store's event goes through
`emit`.  Each operator closure, and each statement that stores one, is
generated from source once per shape and operator, the first time a
run needs it (`_fused_maker`).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from types import CodeType

from .records import Frozen


class Trap(Exception):
    """A defined runtime failure; ends the run with a trace event."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


class RunResult(Frozen):
    """Observable outcome of one program run."""

    __slots__ = ("events", "coverage")

    def __init__(self, events: tuple, coverage: dict | None = None):
        Frozen.__init__(self, events, {} if coverage is None else coverage)

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


# The integer arithmetic and comparisons all three languages share, each
# as the Python expression that computes it from integer operands x and
# y: a fused closure (see `_fused`) writes it inline.
_INT_OPS = {
    "+": "x + y",
    "-": "x - y",
    "*": "x * y",
    "/": "x // y if x >= 0 and y > 0 else trunc_div(x, y)",
    "%": "x % y if x >= 0 and y > 0 else trunc_mod(x, y)",
    "<": "x < y",
    "<=": "x <= y",
    ">": "x > y",
    ">=": "x >= y",
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


def scope(names=()) -> tuple[dict, int]:
    """A compile-time scope that binds names (see `Compiler.scopes`)."""
    return dict.fromkeys(names, 0), 1


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
      BOOL_OPS, the binary operators whose value is always a bool,
      JUNCTIONS, its `and` and `or` operators to `and_test` and
      `or_test`,
      DECLARES, the constructors of the items that declare names in
      their block (each compiles through `declare`), and BUILTINS, the
      callees it runs itself; `void` is what print and a routine that
      falls off its end return.

    An item's closure spends the item's fuel without checking it;
    `item(node)` compiles one, and `hooked` checks the fuel before the
    on_item hook.
    """

    EXPR: dict[str, Callable] = {}
    STMT: dict[str, Callable] = {}
    BINOP: dict[str, Callable] = {}
    BOOL_OPS: frozenset = frozenset()
    DECLARES: frozenset = frozenset()
    BUILTINS: dict[str, Callable] = {}
    JUNCTIONS: dict[str, Callable] = {}
    NOT = "!"
    void = None
    render: Callable
    truthy: Callable

    def __init__(self, funcs: dict, on_item: Callable | None = None,
                 on_enter: Callable | None = None):
        self.funcs = funcs
        self.on_item = on_item
        self.on_enter = on_enter
        # while compiling: each scope, innermost last, as a pair (names,
        # count).  `names` maps each name the scope binds to the number
        # of declarations in it before the name's first; the scope binds
        # at this point the names whose number is below `count`.  A pair
        # is never changed, so a snapshot of the list keeps what each
        # scope bound then, while later declarations go on adding to
        # `names`.
        self.scopes: list[tuple[dict, int]] = []

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
        """A closure that gives the truth of condition e.  An operator of
        `JUNCTIONS` is one closure over its operands' tests (`and_test`,
        `or_test`), and a constant condition is a constant."""
        if e.ctor == "BinE":
            op, lhs, rhs = e.args
            junction = self.JUNCTIONS.get(op)
            if junction is not None:
                return junction(self.test(lhs), self.test(rhs))
            if op in self.BOOL_OPS:
                return self.expr(e)
        elif e.ctor == "UnaryE" and e.args[0] == self.NOT:
            return self.expr(e)
        code = self.expr(e)
        if code.__code__ is _CONSTANT:
            # no language's truthy traps on a constant: an integer, a bool or nil
            value, fuel = code.__defaults__
            return constant(self.truthy(value), fuel)

        def test(st, env, truthy=self.truthy, code=code):
            return truthy(code(st, env))

        return test

    def constant_store(self, lhs, rhs, fuel: int) -> Callable | None:
        """The closure of a statement of `fuel` nodes above the assignment
        `lhs = rhs` that stores a literal to a literal integer index of a
        global or of a global's member, as every coverage marker does, or
        None for any other assignment.  The nodes decide it, so nothing is
        compiled for None.

        The closure reads the global and the member inline, and spends the
        fuel of every node before the first point where it can trap, as
        the chain of `Compiler.target`'s `store_at`, `variable`, `member`
        and the constants spends it: the index's unit after the base's
        lookup, which may trap."""
        if lhs.ctor != "IndexE" or self.EXPR.get(rhs.ctor) is not literal:
            return None
        base, idx = lhs.args
        if self.EXPR.get(idx.ctor) is not literal or type(idx.args[0]) is not int:
            return None
        is_member = self.EXPR.get(base.ctor) is member
        var = base.args[0] if is_member else base
        if var.ctor != "VarE" or self.resolve(var.args[0].args[0]) is not None:
            return None
        idx, value = idx.args[0], rhs.args[0]

        def constant_store(st, env, spent=fuel + 2 + is_member, name=var.args[0].args[0],
                           unbound=self.unbound, is_member=is_member,
                           is_cov=is_member and base.args[1] == "cov", event=("cov", idx),
                           idx=idx, flag=bool(value), value=value,
                           store_index=self.store_index):
            st.fuel -= spent
            base = st.globals[name] if name in st.globals else unbound(name)
            if is_member:
                if base is not TC or not is_cov:
                    raise Trap("member")
                base = COV
            st.fuel -= 1
            if base is COV:
                emit(st, event)
                st.cov[idx] = flag
            else:
                store_index(base, idx, value)

        return constant_store

    def declare(self, name: str) -> None:
        names, count = self.scopes[-1]
        if names.get(name, count) >= count:
            names[name] = count
            self.scopes[-1] = (names, count + 1)

    def resolve(self, name: str) -> int | None:
        """The index in `env` of the scope that holds name at this point,
        or None if no scope does."""
        scopes = self.scopes
        for depth in range(-1, -len(scopes) - 1, -1):
            names, count = scopes[depth]
            if names.get(name, count) < count:
                return depth
        return None

    def routine(self, func) -> tuple[list, Callable]:
        """func's parameter names and its body's closure."""
        params = self.params(func)
        self.scopes = [scope(params)]
        return params, self.block(self.routine_block(func), False)

    def block(self, block, new_scope: bool = True) -> Callable:
        """A closure that runs block's items; the items are compiled when
        it first runs.

        A block one of whose own items declares (its constructor is in
        `DECLARES`) runs in a new scope each time, unless new_scope is
        False.  Any other block binds nothing, so it runs, and its items
        compile, in the scopes around it: it neither pushes a compile-time
        scope nor copies env, and a variable's depth is counted over the
        scopes of declaring blocks only.
        """
        items = self.items_of(block)
        new_scope = new_scope and any(item.ctor in self.DECLARES for item in items)

        # `outer` holds the names bound where the block starts; `code` is
        # filled the first time the block runs
        def run(st, env, comp=self, items=items, new_scope=new_scope,
                outer=tuple(self.scopes), code=[]):
            if not code:
                comp.scopes = [*outer, scope()] if new_scope else list(outer)
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
        return local(depth, name)

    def global_variable(st, env, name=name, unbound=comp.unbound):
        st.fuel -= 1
        if name in st.globals:
            return st.globals[name]
        return unbound(name)

    return global_variable


def local(depth: int, name: str) -> Callable:
    """The closure of a variable that the scope env[depth] holds."""
    def variable(st, env, depth=depth, name=name):
        st.fuel -= 1
        return env[depth][name]

    return variable


# The code of every closure `local` makes; its defaults are (depth, name).
_LOCAL = local(0, "").__code__


def local_assignment(depth: int, name: str, value_c: Callable, fuel: int) -> Callable:
    """The closure of a statement that stores value_c's value to the local
    env[depth][name], for a statement of `fuel` nodes above value_c with
    nothing observable between them.  Where value_c is a fused operator,
    the statement and the operator are one closure."""
    fused = _FUSED.get(value_c.__code__)
    if fused is not None:
        return _fused_maker(*fused, store=True)(depth, name, fuel, *value_c.__defaults__)

    def assign(st, env, depth=depth, name=name, value_c=value_c, fuel=fuel):
        st.fuel -= fuel
        env[depth][name] = value_c(st, env)

    return assign


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
    if op not in _INT_OPS:
        def unknown_op(st, env, a=a, b=b):
            st.fuel -= 1
            check_int(a(st, env))
            check_int(b(st, env))
            raise Trap("op")

        return unknown_op
    return _folded(_fused(op, a, b), a, b)


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


def and_test(a: Callable, b: Callable) -> Callable:
    """The test of an `and_value` node whose operands' tests are a and b:
    it spends the node's unit, and b runs only if a holds, as the truth
    of `and_value` would have it."""
    def and_test(st, env, a=a, b=b):
        st.fuel -= 1
        return a(st, env) and b(st, env)

    return and_test


def or_test(a: Callable, b: Callable) -> Callable:
    """The test of an `or_value` node whose operands' tests are a and b."""
    def or_test(st, env, a=a, b=b):
        st.fuel -= 1
        return a(st, env) or b(st, env)

    return or_test


def equality(equal: Callable) -> Callable:
    """The compile function of `==` and its negation; equal(a, b) decides
    it, and on two integers gives what `==` gives."""

    def compile_(comp: Compiler, e) -> Callable:
        op, lhs, rhs = e.args
        return _fused("==" if op == "==" else "!=", comp.expr(lhs), comp.expr(rhs), equal)

    return compile_


# ---------------------------------------------------------------------------
# Fused operators (see the module docstring): Ertl & Gregg's
# superinstructions (PLDI 2003), generated from source.

# By shape: the closure's parameters, the fuel it spends first, and the
# code that spends the rest of the fuel of the nodes it stands for and
# binds the operands x and y.  Reading a local variable cannot trap, so
# where no operand is a closure the fuel is spent at once; a closure
# operand runs where the unfused chain runs it, after the units of its
# operator and of a local on its left, and before the unit of a constant
# or a local on its right.
_SHAPES = {
    "local_const": ("depth, name, y, fuel", "fuel", "x = env[depth][name]\n"),
    "local_local": ("depth, name, depth_y, name_y", "3",
                    "x = env[depth][name]\ny = env[depth_y][name_y]\n"),
    "local_any": ("depth, name, b", "2", "x = env[depth][name]\ny = b(st, env)\n"),
    "any_const": ("a, y, fuel", "1", "x = a(st, env)\nst.fuel -= fuel\n"),
    "any_local": ("a, depth_y, name_y", "1",
                  "x = a(st, env)\nst.fuel -= 1\ny = env[depth_y][name_y]\n"),
    "any_any": ("a, b", "1", "x = a(st, env)\ny = b(st, env)\n"),
}

# What a fused closure does with its operands: an integer operator traps
# unless both are integers; equality asks `equal` unless both are.  A
# constant operand is always an integer.  `result` is `return ` for a
# value closure, or the store of a statement closure.
_INT_OP = """\
if type(x) is not int{y_is_not_int}:
    raise Trap("type")
{result}{expr}
"""
_EQUALITY = "{result}x {op} y if type(x) is int{y_is_int} else {negation}equal(x, y)\n"

# The code of each fused value closure made so far, to its shape and
# operator (see `local_assignment`).
_FUSED: dict[CodeType, tuple[str, str]] = {}


def _fused_source(shape: str, op: str, store: bool) -> str:
    """The source of `make`, which makes the fused closures of one shape
    and operator from the shape's parameters, and then `equal` for
    equality.

    A store closure is the statement `x = <value>` for a local x whose
    value would be the value closure: `make` takes x's depth and name and
    the statement's own fuel first, and the closure spends that fuel
    with the value's first units, having run nothing in between.
    """
    params, first, load = _SHAPES[shape]
    name, result = shape, "return "
    if store:
        params = "to_depth, to_name, to_fuel, " + params
        first = "to_fuel + " + first
        name, result = shape + "_store", "env[to_depth][to_name] = "
    y_const = shape.endswith("_const")
    if op in _INT_OPS:
        body = _INT_OP.format(y_is_not_int="" if y_const else " or type(y) is not int",
                              result=result, expr=_INT_OPS[op])
    else:
        params += ", equal"
        body = _EQUALITY.format(result=result, op=op,
                                y_is_int="" if y_const else " and type(y) is int",
                                negation="" if op == "==" else "not ")
    defaults = ", ".join(f"{p}={p}" for p in params.split(", "))
    return (f"def make({params}):\n    def {name}(st, env, {defaults}):\n"
            + "".join(f"        {line}\n"
                      for line in f"st.fuel -= {first}\n{load}{body}".splitlines())
            + f"    return {name}\n")


@cache
def _fused_maker(shape: str, op: str, store: bool = False) -> Callable:
    """The `make` of `_fused_source`, compiled on first use."""
    namespace = {"Trap": Trap, "trunc_div": trunc_div, "trunc_mod": trunc_mod}
    exec(compile(_fused_source(shape, op, store), f"<fused {op} {shape}>", "exec"),
         namespace)
    make = namespace["make"]
    if not store:
        closure, = (c for c in make.__code__.co_consts if isinstance(c, CodeType))
        _FUSED[closure] = shape, op
    return make


def _fused(op: str, a: Callable, b: Callable, equal: Callable | None = None) -> Callable:
    """The closure of `a op b`, for an integer operator or for `==` or
    `!=` decided by equal, fused for the shape of the operand closures:
    a local variable or any closure, against a local variable, an
    integer constant or any closure."""
    extra = () if equal is None else (equal,)
    a_local = a.__code__ is _LOCAL
    if b.__code__ is _CONSTANT and type(b.__defaults__[0]) is int:
        y, fuel = b.__defaults__
        if a_local:
            return _fused_maker("local_const", op)(*a.__defaults__, y, 2 + fuel, *extra)
        return _fused_maker("any_const", op)(a, y, fuel, *extra)
    if b.__code__ is _LOCAL:
        if a_local:
            return _fused_maker("local_local", op)(*a.__defaults__, *b.__defaults__, *extra)
        return _fused_maker("any_local", op)(a, *b.__defaults__, *extra)
    if a_local:
        return _fused_maker("local_any", op)(*a.__defaults__, b, *extra)
    return _fused_maker("any_any", op)(a, b, *extra)


EXPRESSIONS = {
    "VarE": variable,
    "IndexE": index,
    "CallE": call,
    "UnaryE": unary,
    "BinE": binary,
}
