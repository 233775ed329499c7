"""Seeded random program generation for the differential test harness.

Programs are emitted as source text, one generator per language, from a
shared statement/expression sketch.  Every variable is declared before
use, loops are counted (so almost everything terminates well inside the
fuel budget), division and modulus only ever see non-zero literal
divisors, and calls to unknown externals are confined to print arguments
and branch conditions where their mocked values cannot trap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Names the generator must never produce: coverage and harness globals,
# and builtins.
_FORBIDDEN = frozenset({"cov", "TC", "array", "print", "main"})

_EXTERNALS = ("ext0", "ext1", "ext2")


@dataclass(frozen=True)
class GenConfig:
    """Identical config always yields the identical program."""

    seed: int = 0
    max_depth: int = 6
    max_stmts: int = 5
    loops: bool = True
    short_circuit: bool = True
    shadowing: bool = False
    parallel_assign: bool = True


class _Emitter:
    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.lines: list[str] = []
        self.indent = 0
        self.funcs: list[tuple[str, int]] = []  # (name, arity)

    def line(self, text: str) -> None:
        self.lines.append("  " * self.indent + text)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"

    # -- scopes ------------------------------------------------------------

    def push_scope(self, scopes: list) -> list:
        return scopes + [{}]

    def declare(self, scopes: list, name: str, ty: str) -> None:
        scopes[-1][name] = ty

    def visible(self, scopes: list, ty: str) -> list[str]:
        seen: dict[str, str] = {}
        for scope in scopes:
            seen.update(scope)
        return sorted(n for n, t in seen.items() if t == ty)

    def readable_ints(self, scopes: list) -> list[str]:
        # loop counters may be read but never reassigned (termination)
        return sorted(self.visible(scopes, "int") + self.visible(scopes, "loopvar"))

    def fresh_name(self, scopes: list) -> str:
        n = 0
        taken = {name for scope in scopes for name in scope}
        while True:
            name = f"v{n}"
            n += 1
            if name not in taken and name not in _FORBIDDEN:
                return name

    def pick_decl_name(self, scopes: list) -> str:
        # under the shadowing toggle, sometimes reuse an outer-scope name
        if self.cfg.shadowing and len(scopes) > 1 and self.rng.random() < 0.35:
            outer = sorted(
                n for scope in scopes[:-1] for n in scope if n not in scopes[-1]
            )
            if outer:
                return self.rng.choice(outer)
        return self.fresh_name(scopes)

    def block(self, scopes: list, depth: int, in_loop: bool, n: int = None) -> None:
        inner = self.push_scope(scopes)
        count = n if n is not None else self.rng.randrange(1, self.cfg.max_stmts + 1)
        for _ in range(count):
            self.stmt(inner, depth, in_loop)

    # -- expressions -------------------------------------------------------

    def int_expr(self, scopes: list, depth: int) -> str:
        r = self.rng.random()
        ints = self.readable_ints(scopes)
        if depth <= 0 or r < 0.3 or (r < 0.55 and not ints):
            return str(self.rng.randrange(0, 10))
        if r < 0.55:
            return self.rng.choice(ints)
        if r < 0.8 or not self.funcs:
            op = self.rng.choice(["+", "-", "*", "+", "-"])
            a = self.int_expr(scopes, depth - 1)
            b = self.int_expr(scopes, depth - 1)
            return f"({a} {op} {b})"
        if r < 0.9:
            # non-zero literal divisor only
            a = self.int_expr(scopes, depth - 1)
            op = self.rng.choice(["/", "%"])
            return f"({a} {op} {self.rng.randrange(2, 5)})"
        name, arity = self.rng.choice(self.funcs)
        args = ", ".join(self.int_expr(scopes, depth - 2) for _ in range(arity))
        return f"{name}({args})"

    def bool_expr(self, scopes: list, depth: int) -> str:
        r = self.rng.random()
        if depth <= 0 or r < 0.15:
            return self.true_lit() if self.rng.random() < 0.5 else self.false_lit()
        if r < 0.6:
            a = self.int_expr(scopes, depth - 1)
            b = self.int_expr(scopes, depth - 1)
            op = self.rng.choice(["<", ">", "<=", ">=", "==", self.neq_op()])
            return f"({a} {op} {b})"
        if self.cfg.short_circuit and r < 0.85:
            a = self.bool_expr(scopes, depth - 1)
            b = self.bool_expr(scopes, depth - 1)
            return f"({a} {self.rng.choice([self.and_op(), self.or_op()])} {b})"
        return f"{self.not_op(self.bool_expr(scopes, depth - 1))}"

    def cond_expr(self, scopes: list, depth: int) -> str:
        # conditions may consult an external: truthiness never traps
        if self.rng.random() < 0.15:
            return f"{self.rng.choice(_EXTERNALS)}({self.int_expr(scopes, 1)})"
        return self.bool_expr(scopes, depth)

    def print_arg(self, scopes: list, depth: int) -> str:
        r = self.rng.random()
        if r < 0.2:
            return f"{self.rng.choice(_EXTERNALS)}({self.int_expr(scopes, 1)})"
        if r < 0.35:
            return self.bool_expr(scopes, depth)
        return self.int_expr(scopes, depth)

    # -- language hooks ----------------------------------------------------

    def true_lit(self) -> str:
        return "true"

    def false_lit(self) -> str:
        return "false"

    def neq_op(self) -> str:
        return "!="

    def and_op(self) -> str:
        return "&&"

    def or_op(self) -> str:
        return "||"

    def not_op(self, e: str) -> str:
        return f"(!{e})"


# ---------------------------------------------------------------------------


class _CurlyEmitter(_Emitter):
    """Shared statement layer for the brace languages.  A subclass names
    its keywords, the share of `for` among loops and the declaration
    without an initializer."""

    func_kw: str  # before a function name
    param_kw: str  # before a parameter name
    int_kw: str  # declares an int
    bool_kw: str  # declares a bool
    for_share: float

    def stmt(self, scopes: list, depth: int, in_loop: bool) -> None:
        choices = ["decl", "assign", "print", "print"]
        if depth > 0:
            choices += ["if", "nested"]
            if self.cfg.loops:
                choices += ["loop"]
        if in_loop and self.rng.random() < 0.2:
            self.jump_stmt(scopes)
            return
        kind = self.rng.choice(choices)
        getattr(self, "stmt_" + kind)(scopes, depth, in_loop)

    def stmt_assign(self, scopes: list, depth: int, in_loop: bool) -> None:
        ints = self.visible(scopes, "int")
        bools = self.visible(scopes, "bool")
        if bools and (not ints or self.rng.random() < 0.25):
            self.line(f"{self.rng.choice(bools)} = {self.bool_expr(scopes, 2)};")
        elif ints:
            self.line(f"{self.rng.choice(ints)} = {self.int_expr(scopes, 3)};")
        else:
            self.stmt_decl(scopes, depth, in_loop)

    def stmt_print(self, scopes: list, depth: int, in_loop: bool) -> None:
        self.line(f"print({self.print_arg(scopes, 2)});")

    def stmt_if(self, scopes: list, depth: int, in_loop: bool) -> None:
        self.line(f"if ({self.cond_expr(scopes, 2)}) {{")
        self.indent += 1
        self.block(scopes, depth - 1, in_loop)
        self.indent -= 1
        if self.rng.random() < 0.5:
            self.line("} else {")
            self.indent += 1
            self.block(scopes, depth - 1, in_loop)
            self.indent -= 1
        self.line("}")

    def jump_stmt(self, scopes: list) -> None:
        kw = self.rng.choice(["break", "continue"])
        self.line(f"if ({self.cond_expr(scopes, 1)}) {{")
        self.indent += 1
        self.line(f"{kw};")
        self.indent -= 1
        self.line("}")

    def program(self) -> str:
        n_helpers = self.rng.randrange(1, 3)
        for i in range(n_helpers):
            arity = self.rng.randrange(1, 3)
            self.funcs_helper(f"f{i}", arity)
        self.line(f"{self.func_kw} main() {{")
        self.indent += 1
        scopes: list = [{}]
        self.block(scopes, self.cfg.max_depth - 3, False,
                   n=self.rng.randrange(3, self.cfg.max_stmts + 3))
        self.line(f"return {self.int_expr(scopes, 2)};")
        self.indent -= 1
        self.line("}")
        return self.render()

    def funcs_helper(self, name: str, arity: int) -> None:
        params = [f"p{i}" for i in range(arity)]
        plist = ", ".join(self.param_kw + p for p in params)
        self.line(f"{self.func_kw} {name}({plist}) {{")
        self.indent += 1
        scopes: list = [{p: "int" for p in params}]
        self.block(scopes, 1, False, n=self.rng.randrange(1, 3))
        self.line(f"return {self.int_expr(scopes, 2)};")
        self.indent -= 1
        self.line("}")
        self.funcs.append((name, arity))

    def stmt_decl(self, scopes: list, depth: int, in_loop: bool) -> None:
        # initializers are built before the binder is registered, so a
        # declaration can never read its own fresh name
        name = self.pick_decl_name(scopes)
        r = self.rng.random()
        if r < 0.2:
            init = self.bool_expr(scopes, 2)
            self.declare(scopes, name, "bool")
            self.line(f"{self.bool_kw} {name} = {init};")
        elif r < 0.3:
            self.decl_uninit(scopes, name)
        elif r < 0.4:
            first = self.int_expr(scopes, 2)
            self.declare(scopes, name, "int")
            second = self.fresh_name(scopes)
            rest = self.int_expr(scopes, 2)  # may read the first declarator
            self.declare(scopes, second, "int")
            self.line(f"{self.int_kw} {name} = {first}, {second} = {rest};")
        else:
            init = self.int_expr(scopes, 3)
            self.declare(scopes, name, "int")
            self.line(f"{self.int_kw} {name} = {init};")

    def stmt_nested(self, scopes: list, depth: int, in_loop: bool) -> None:
        self.line("{")
        self.indent += 1
        self.block(scopes, depth - 1, in_loop)
        self.indent -= 1
        self.line("}")

    def stmt_loop(self, scopes: list, depth: int, in_loop: bool) -> None:
        var = self.fresh_name(scopes)
        bound = self.rng.randrange(2, 6)
        self.declare(scopes, var, "loopvar")
        inner = self.push_scope(scopes)
        self.line(f"{self.int_kw} {var} = 0;")
        if self.rng.random() < self.for_share:
            self.line(f"for ({var} = 0; {var} < {bound}; {var} = {var} + 1) {{")
            self.indent += 1
            self.block(inner, depth - 1, True)
        else:
            self.line(f"while ({var} < {bound}) {{")
            self.indent += 1
            # increment first so a generated continue cannot skip it
            self.line(f"{var} = {var} + 1;")
            self.block(inner, depth - 1, False)
        self.indent -= 1
        self.line("}")


class _MiniCEmitter(_CurlyEmitter):
    func_kw, param_kw, int_kw, bool_kw = "int", "int ", "int", "bool"
    for_share = 0.5

    def decl_uninit(self, scopes: list, name: str) -> None:
        self.declare(scopes, name, "int")
        self.line(f"int {name};")


class _MiniJSEmitter(_CurlyEmitter):
    func_kw, param_kw, int_kw, bool_kw = "function", "", "var", "var"
    for_share = 0.6

    def decl_uninit(self, scopes: list, name: str) -> None:
        init = self.int_expr(scopes, 2)
        self.declare(scopes, name, "int")
        self.line(f"var {name};")
        self.line(f"{name} = {init};")


class _MiniLuaEmitter(_Emitter):
    def neq_op(self) -> str:
        return "~="

    def and_op(self) -> str:
        return "and"

    def or_op(self) -> str:
        return "or"

    def not_op(self, e: str) -> str:
        return f"(not {e})"

    def program(self) -> str:
        n_helpers = self.rng.randrange(1, 3)
        for i in range(n_helpers):
            arity = self.rng.randrange(1, 3)
            self.funcs_helper(f"f{i}", arity)
        scopes: list = [{}]
        self.block(scopes, self.cfg.max_depth - 3, False,
                   n=self.rng.randrange(3, self.cfg.max_stmts + 3))
        self.line(f"print({self.int_expr(scopes, 2)})")
        return self.render()

    def funcs_helper(self, name: str, arity: int) -> None:
        params = [f"p{i}" for i in range(arity)]
        self.line(f"function {name}({', '.join(params)})")
        self.indent += 1
        scopes: list = [{p: "int" for p in params}]
        self.block(scopes, 1, False, n=self.rng.randrange(1, 3))
        self.line(f"return {self.int_expr(scopes, 2)}")
        self.indent -= 1
        self.line("end")
        self.funcs.append((name, arity))

    def stmt(self, scopes: list, depth: int, in_loop: bool) -> None:
        choices = ["decl", "assign", "print", "print"]
        if self.cfg.parallel_assign:
            choices.append("parallel")
        if depth > 0:
            choices += ["if", "nested"]
            if self.cfg.loops:
                choices += ["loop"]
        if in_loop and self.rng.random() < 0.15:
            self.line(f"if {self.cond_expr(scopes, 1)} then")
            self.indent += 1
            self.line("break")
            self.indent -= 1
            self.line("end")
            return
        kind = self.rng.choice(choices)
        getattr(self, "stmt_" + kind)(scopes, depth, in_loop)

    def stmt_decl(self, scopes: list, depth: int, in_loop: bool) -> None:
        # initializers run before the binder exists, so build them first
        name = self.pick_decl_name(scopes)
        r = self.rng.random()
        if r < 0.2:
            init = self.bool_expr(scopes, 2)
            self.declare(scopes, name, "bool")
            self.line(f"local {name} = {init}")
        elif r < 0.3:
            # self-reference resolves to the outer binding in this language
            outer = {n for scope in scopes[:-1] for n in scope}
            if self.cfg.shadowing and name in outer:
                init = name
            else:
                init = self.int_expr(scopes, 2)
            self.declare(scopes, name, "int")
            self.line(f"local {name} = {init}")
        elif r < 0.45 and self.cfg.parallel_assign:
            a = self.int_expr(scopes, 2)
            b = self.int_expr(scopes, 2)
            self.declare(scopes, name, "int")
            second = self.fresh_name(scopes)
            self.declare(scopes, second, "int")
            self.line(f"local {name}, {second} = {a}, {b}")
        else:
            init = self.int_expr(scopes, 3)
            self.declare(scopes, name, "int")
            self.line(f"local {name} = {init}")

    def stmt_assign(self, scopes: list, depth: int, in_loop: bool) -> None:
        ints = self.visible(scopes, "int")
        bools = self.visible(scopes, "bool")
        if bools and (not ints or self.rng.random() < 0.25):
            self.line(f"{self.rng.choice(bools)} = {self.bool_expr(scopes, 2)}")
        elif ints:
            self.line(f"{self.rng.choice(ints)} = {self.int_expr(scopes, 3)}")
        else:
            self.stmt_decl(scopes, depth, in_loop)

    def stmt_parallel(self, scopes: list, depth: int, in_loop: bool) -> None:
        ints = self.visible(scopes, "int")
        if len(ints) < 2:
            self.stmt_assign(scopes, depth, in_loop)
            return
        a, b = self.rng.sample(ints, 2)
        if self.rng.random() < 0.5:
            self.line(f"{a}, {b} = {b}, {a}")
        else:
            self.line(
                f"{a}, {b} = {self.int_expr(scopes, 2)}, {self.int_expr(scopes, 2)}"
            )

    def stmt_print(self, scopes: list, depth: int, in_loop: bool) -> None:
        self.line(f"print({self.print_arg(scopes, 2)})")

    def stmt_if(self, scopes: list, depth: int, in_loop: bool) -> None:
        self.line(f"if {self.cond_expr(scopes, 2)} then")
        self.indent += 1
        self.block(scopes, depth - 1, in_loop)
        self.indent -= 1
        r = self.rng.random()
        if r < 0.3:
            self.line(f"elseif {self.cond_expr(scopes, 2)} then")
            self.indent += 1
            self.block(scopes, depth - 1, in_loop)
            self.indent -= 1
        if r < 0.6:
            self.line("else")
            self.indent += 1
            self.block(scopes, depth - 1, in_loop)
            self.indent -= 1
        self.line("end")

    def stmt_nested(self, scopes: list, depth: int, in_loop: bool) -> None:
        self.line("do")
        self.indent += 1
        self.block(scopes, depth - 1, in_loop)
        self.indent -= 1
        self.line("end")

    def stmt_loop(self, scopes: list, depth: int, in_loop: bool) -> None:
        var = self.fresh_name(scopes)
        bound = self.rng.randrange(2, 6)
        if self.rng.random() < 0.6:
            inner = self.push_scope(scopes)
            self.declare(inner, var, "loopvar")
            step = ", 2" if self.rng.random() < 0.25 else ""
            self.line(f"for {var} = 1, {bound}{step} do")
            self.indent += 1
            self.block(inner, depth - 1, True)
            self.indent -= 1
            self.line("end")
        else:
            self.declare(scopes, var, "loopvar")
            inner = self.push_scope(scopes)
            self.line(f"local {var} = 0")
            self.line(f"while {var} < {bound} do")
            self.indent += 1
            self.line(f"{var} = {var} + 1")
            self.block(inner, depth - 1, True)
            self.indent -= 1
            self.line("end")


_EMITTERS = {
    "minic": _MiniCEmitter,
    "minijs": _MiniJSEmitter,
    "minilua": _MiniLuaEmitter,
}


def gen_program(lang_name: str, cfg: GenConfig) -> str:
    try:
        emitter = _EMITTERS[lang_name]
    except KeyError:
        raise KeyError(f"no generator for language {lang_name!r}") from None
    return emitter(cfg).program()
