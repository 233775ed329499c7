"""Shared execution machinery for the bundled interpreters.

Runs are fully deterministic: unknown callees are mocked by a per-run call
counter, integer division truncates toward zero, and every trap is an
ordinary outcome recorded in the trace rather than a crash.
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


class BreakEx(Exception):
    pass


class ContinueEx(Exception):
    pass


class ReturnEx(Exception):
    def __init__(self, value):
        super().__init__()
        self.value = value


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


# Interpreted calls nest on the Python stack, so a call nested deeper than
# this ends the run with Trap("stack").
MAX_CALL_DEPTH = 100

# Sentinel values: MiniJS's and MiniLua's coverage table `TC`, and the
# coverage array (`cov` in MiniC, `TC.cov` elsewhere).
TC = object()
COV = object()


def check_int(v) -> int:
    """v itself if it is an integer (not a bool), else Trap("type")."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise Trap("type")
    return v


def trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise Trap("divzero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def trunc_mod(a: int, b: int) -> int:
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


def int_op(op: str, a, b):
    """The integer arithmetic and comparisons all three languages share."""
    if (isinstance(a, bool) or not isinstance(a, int)
            or isinstance(b, bool) or not isinstance(b, int)):
        raise Trap("type")
    fn = _INT_OPS.get(op)
    if fn is None:
        raise Trap("op")
    return fn(a, b)


class Interp:
    """What the bundled interpreters share: fuel, the trace, coverage
    cells, variables, calls, print and mocked external callees.

    A subclass supplies start() (run the program, return its value),
    bind(func, args) (the callee's first scope and its body), unbound(name),
    exec_stmt, eval and `render`; `void` is what print and a call that
    falls off its end return.
    """

    render: Callable
    void = None

    def __init__(self, funcs: dict, fuel: int,
                 on_item: Optional[Callable] = None,
                 on_enter: Optional[Callable] = None):
        self.funcs = funcs
        self.fuel = fuel
        self.events: list[tuple] = []
        self.cov: dict[int, bool] = {}
        self.globals: dict[str, object] = {}
        self.ext_calls = 0
        self.depth = 0
        self.on_item = on_item
        self.on_enter = on_enter

    def tick(self) -> None:
        self.fuel -= 1
        if self.fuel < 0:
            raise Trap("fuel")

    def run(self) -> RunResult:
        try:
            self.events.append(("return", self.render(self.start())))
        except Trap as trap:
            self.events.append(("trap", trap.kind))
        return RunResult(tuple(self.events), dict(self.cov))

    def main(self):
        main = self.funcs.get("main")
        if main is None:
            raise Trap("nomain")
        return main

    def call_user(self, func, args: list):
        if self.depth == MAX_CALL_DEPTH:
            raise Trap("stack")
        frame, body = self.bind(func, args)
        if self.on_enter:
            self.on_enter(func)
        self.depth += 1
        try:
            self.exec_block(body, [frame], new_scope=False)
        except ReturnEx as ret:
            return ret.value
        finally:
            self.depth -= 1
        return self.void

    def exec_block(self, block, env: list, new_scope: bool = True):
        if new_scope:
            env = env + [{}]
        for item in block.args[0]:
            self.exec_item(item, env)

    def exec_item(self, stmt, env: list) -> None:
        if self.on_item:
            self.on_item(stmt)
        self.tick()
        self.exec_stmt(stmt, env)

    def lookup(self, name: str, env: list):
        for scope in reversed(env):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return self.globals[name]
        return self.unbound(name)

    def store(self, name: str, value, env: list) -> None:
        for scope in reversed(env):
            if name in scope:
                scope[name] = value
                return
        # Assignment to an undeclared name creates a global.
        self.globals[name] = value

    def mark(self, idx: int, value):
        """Store to coverage cell idx: a trace event and the cell's flag."""
        self.events.append(("cov", idx))
        self.cov[idx] = bool(value)
        return value

    def call(self, name: str, args: list):
        if name in self.funcs:
            return self.call_user(self.funcs[name], args)
        if name == "print":
            self.events.append(("print", " ".join(self.render(a) for a in args)))
            return self.void
        self.events.append(("call", name, tuple(self.render(a) for a in args)))
        value = external_value(self.ext_calls, args)
        self.ext_calls += 1
        return value
