"""Shared lexing and parsing scaffolding for the bundled frontends, their
printers' layout driver, and the layouts and compiled statements of the
C-like ones.

Every frontend parses expressions with `expression_parser`, one loop on
explicit stacks, so an expression's nesting takes no Python frames;
statements are parsed by recursive descent.  A frontend prints a
statement as a layout, a sequence of lines, indent marks and nested
statements, which `render` expands on an explicit stack."""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable

from ..runtime import (
    BREAK,
    COMPARISONS,
    CONTINUE,
    EXPRESSIONS,
    Compiler,
    Trap,
    literal,
    local_assignment,
)
from ..schema import GV, GenericValue


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


# A token's kind is num, name, string, op or eof.
Token = namedtuple("Token", "kind value line col")

# `string.ascii_letters` and `string.digits`, written out so that loading
# a language does not import `string`.
_ASCII_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_DIGITS = "0123456789"

# Token's generated __new__ is a Python function; the lexer builds the
# tuple directly.
_new_token = tuple.__new__
_UNESCAPE = re.compile(r"\\(.)", re.DOTALL).sub


def lexer(
    operators: list[str], line_comment: str, strings: bool = False
) -> Callable[[str], list[Token]]:
    """A language's lexer over names, decimal integers, operators and,
    with `strings`, quoted strings, compiled into one regular expression.

    Operators use longest match.  A column counts every character before
    it on its line except comment characters, and a backslash-escaped
    newline inside a string does not start a line.  A name starts with
    a letter or `_`; a number is a run of decimal digits, which `int`
    always accepts.
    """
    ops = "|".join(map(re.escape, sorted(operators, key=len, reverse=True)))
    string = r"""|"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*'""" if strings else ""
    # each match: the horizontal space before a token, then the token
    scan = re.compile(
        rf"([^\S\n]*)(\n|{re.escape(line_comment)}[^\n]*|\d+|[^\W\d]\w*{string}|{ops}|\S)",
        re.DOTALL,
    ).findall
    exact = dict.fromkeys(operators, "op")
    exact["\n"] = "nl"
    first = dict.fromkeys(_ASCII_LETTERS + "_", "name")
    first.update(dict.fromkeys(_DIGITS, "num"))
    exact_kind, first_kind = exact.get, first.get

    def rare_kind(tok: str, line: int, col: int) -> str:
        c = tok[0]
        if tok.startswith(line_comment):
            return "comment"
        if strings and c in "'\"":
            if len(tok) == 1:
                raise ParseError("unterminated string", line, col)
            return "string"
        if c.isdecimal():
            return "num"
        if c.isalpha():
            return "name"
        raise ParseError(f"unexpected character {c!r}", line, col)

    def tokenize(text: str) -> list[Token]:
        toks: list[Token] = []
        append = toks.append
        line = col = 1
        tok = ""
        for space, tok in scan(text):
            col += len(space)
            kind = exact_kind(tok) or first_kind(tok[0]) or rare_kind(tok, line, col)
            if kind == "nl":
                line += 1
                col = 1
                continue
            if kind == "comment":
                continue
            value = tok
            if kind == "string":
                value = tok[1:-1]
                if "\\" in value:
                    value = _UNESCAPE(r"\1", value)
            append(_new_token(Token, (kind, value, line, col)))
            col += len(tok)
        # the space after the last token's line counts toward the eof
        # column; the characters of a trailing comment do not
        if not tok.startswith(line_comment):
            tail = text[len(text.rstrip()):]
            col += len(tail) - tail.rfind("\n") - 1
        append(_new_token(Token, ("eof", "", line, col)))
        return toks

    return tokenize


class TokenStream:
    """Cursor over a token list with the usual expect/accept helpers.
    The list ends with the one eof token, which `next` never passes."""

    def __init__(self, tokens: list[Token], keywords: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.keywords = keywords
        self.in_loop = False

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def at_op(self, op: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "op" and tok.value == op

    def at_kw(self, kw: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "name" and tok.value == kw

    def accept_op(self, op: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.value == op:
            self.pos += 1
            return True
        return False

    def accept_kw(self, kw: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind == "name" and tok.value == kw:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise self.error(f"expected {op!r}, got {self.peek().value!r}")

    def expect_kw(self, kw: str) -> None:
        if not self.accept_kw(kw):
            raise self.error(f"expected {kw!r}, got {self.peek().value!r}")

    def expect_name(self) -> str:
        tok = self.peek()
        if tok.kind != "name" or tok.value in self.keywords:
            raise self.error(f"expected an identifier, got {tok.value!r}")
        self.next()
        return tok.value

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"trailing input {tok.value!r}")

    def comma_list(self, item: Callable, closer: str | None = None) -> list:
        """`item(self)` results separated by commas.  With a closer, the
        list may be empty and the closer is consumed."""
        if closer is not None and self.accept_op(closer):
            return []
        items = [item(self)]
        while self.accept_op(","):
            items.append(item(self))
        if closer is not None:
            self.expect_op(closer)
        return items

    def loop_body(self, parse: Callable, in_loop: bool = True):
        """`parse(self)` for a loop body, or for a function body with
        in_loop=False: break and continue parse only inside a loop."""
        outer, self.in_loop = self.in_loop, in_loop
        body = parse(self)
        self.in_loop = outer
        return body

    def accept_jump(self, kw: str) -> bool:
        """accept_kw for `break`/`continue`, rejecting one outside a loop."""
        if not self.at_kw(kw):
            return False
        if not self.in_loop:
            raise self.error(f"{kw!r} outside a loop")
        self.next()
        return True


def parse_ident(ts: TokenStream) -> GenericValue:
    return GV("Ident", (ts.expect_name(),))


def parse_c_stmt(ts: TokenStream, expr: Callable, body: Callable,
                 block: Callable, decl_kw: str | None = None) -> GenericValue:
    """A statement of the C-like grammar MiniC and MiniJS share.  `body`
    parses the body of if, while and for, `block` a braced block; a for
    header may not start with the declaration keyword `decl_kw`."""
    tok = ts.tokens[ts.pos]
    if tok.kind == "name" and tok.value in _C_STMT_KWS:
        if ts.accept_kw("if"):
            ts.expect_op("(")
            cond = expr(ts)
            ts.expect_op(")")
            then = body(ts)
            els = GV("SomeElse", (body(ts),)) if ts.accept_kw("else") else GV("NoElse")
            return GV("IfStmt", (cond, then, els))
        if ts.accept_kw("while"):
            ts.expect_op("(")
            cond = expr(ts)
            ts.expect_op(")")
            return GV("WhileStmt", (cond, ts.loop_body(body)))
        if ts.accept_kw("for"):
            ts.expect_op("(")
            if decl_kw is not None and ts.at_kw(decl_kw):
                raise ts.error("declarations are not allowed in a for header")
            init = _parse_opt_expr(ts, expr, ";")
            ts.expect_op(";")
            cond = _parse_opt_expr(ts, expr, ";")
            ts.expect_op(";")
            step = _parse_opt_expr(ts, expr, ")")
            ts.expect_op(")")
            return GV("ForStmt", (init, cond, step, ts.loop_body(body)))
        if ts.accept_kw("return"):
            opt = _parse_opt_expr(ts, expr, ";")
            ts.expect_op(";")
            return GV("ReturnStmt", (opt,))
        if ts.accept_jump("break"):
            ts.expect_op(";")
            return GV("BreakStmt")
        if ts.accept_jump("continue"):
            ts.expect_op(";")
            return GV("ContinueStmt")
    if ts.at_op("{"):
        return GV("BlockStmt", (block(ts),))
    e = expr(ts)
    ts.expect_op(";")
    return GV("ExprStmt", (e,))


# The keywords that start a statement of parse_c_stmt.
_C_STMT_KWS = frozenset({"if", "while", "for", "return", "break", "continue"})


def _parse_opt_expr(ts: TokenStream, expr: Callable, closer: str) -> GenericValue:
    if ts.at_op(closer):
        return GV("NoExpr")
    return GV("SomeExpr", (expr(ts),))


def c_stmt_layout(lang: str, expr: Callable, inner: Callable, body: Callable,
                  if_else: Callable, own: dict) -> Callable:
    """The layout (see `render`) of a statement of language `lang`: one
    of `parse_c_stmt`'s grammar, with expressions printed by `expr`, or
    one whose constructor `own` maps to its layout.  `inner(block)` lays
    out a braced block's contents, `body(header, b)` the body of an if,
    while or for under its header, and `if_else(header, then, els)` an
    if with an else."""

    def layout(s: GenericValue):
        c = s.ctor
        if c in own:
            return own[c](s)
        if c == "ExprStmt":
            return (expr(s.args[0]) + ";",)
        if c == "IfStmt":
            cond, then, els = s.args
            if els.ctor == "SomeElse":
                return if_else(f"if ({expr(cond)})", then, els.args[0])
            return body(f"if ({expr(cond)})", then)
        if c == "WhileStmt":
            return body(f"while ({expr(s.args[0])})", s.args[1])
        if c == "ForStmt":
            clauses = "; ".join(
                expr(o.args[0]) if o.ctor == "SomeExpr" else "" for o in s.args[:3]
            )
            return body(f"for ({clauses})", s.args[3])
        if c == "ReturnStmt":
            opt = s.args[0]
            return (f"return {expr(opt.args[0])};" if opt.ctor == "SomeExpr" else "return;",)
        if c == "BreakStmt":
            return ("break;",)
        if c == "ContinueStmt":
            return ("continue;",)
        if c == "BlockStmt":
            return ("{", INDENT, *inner(s.args[0]), DEDENT, "}")
        raise ValueError(f"not a {lang} statement: {c}")

    return layout


def expr_stmt(comp: Compiler, s: GenericValue) -> Callable:
    code = comp.expr(s.args[0])
    if code.__code__ is _ASSIGN_LOCAL:
        # `x = <expr>;` to a local x: one closure spends the statement's
        # unit and the assignment's, with nothing between them
        return local_assignment(*code.__defaults__, 2)

    def expr_stmt(st, env, code=code):
        st.fuel -= 1
        code(st, env)

    return expr_stmt


def _assign_expr(comp: Compiler, e: GenericValue) -> Callable:
    """Assignment as an expression: the value is the value assigned."""
    lhs, rhs = e.args
    value_c = comp.expr(rhs)
    depth = comp.resolve(lhs.args[0].args[0]) if lhs.ctor == "VarE" else None
    if depth is None:
        def assign(st, env, store=comp.target(lhs), value_c=value_c):
            st.fuel -= 1
            return store(st, env, value_c(st, env))

        return assign
    return _assign_local(depth, lhs.args[0].args[0], value_c)


def _assign_local(depth: int, name: str, value_c: Callable) -> Callable:
    def assign_local(st, env, depth=depth, name=name, value_c=value_c):
        st.fuel -= 1
        value = env[depth][name] = value_c(st, env)
        return value

    return assign_local


# The code of every closure `_assign_local` makes; its defaults are
# (depth, name, value_c).
_ASSIGN_LOCAL = _assign_local(0, "", None).__code__


def branch(test: Callable, then_c: Callable, else_c: Callable | None) -> Callable:
    """The closure of an if: then_c if test holds, else else_c, if any."""
    def if_(st, env, test=test, then_c=then_c, else_c=else_c):
        st.fuel -= 1
        if test(st, env):
            return then_c(st, env)
        return None if else_c is None else else_c(st, env)

    return if_


def _if_stmt(comp: Compiler, s: GenericValue) -> Callable:
    cond, then, els = s.args
    return branch(comp.test(cond), comp.body(then),
                  comp.body(els.args[0]) if els.ctor == "SomeElse" else None)


def while_stmt(comp: Compiler, s: GenericValue) -> Callable:
    cond, body = s.args

    def while_(st, env, test=comp.test(cond), body_c=comp.body(body)):
        st.fuel -= 1
        while True:
            st.fuel -= 1
            if st.fuel < 0:
                raise Trap("fuel")
            if not test(st, env):
                return None
            signal = body_c(st, env)
            if signal is not None and signal is not CONTINUE:
                return None if signal is BREAK else signal

    return while_


def _for_stmt(comp: Compiler, s: GenericValue) -> Callable:
    init, cond, step, body = s.args

    def for_(st, env,
             init_c=comp.expr(init.args[0]) if init.ctor == "SomeExpr" else None,
             test=comp.test(cond.args[0]) if cond.ctor == "SomeExpr" else None,
             step_c=comp.expr(step.args[0]) if step.ctor == "SomeExpr" else None,
             body_c=comp.body(body)):
        st.fuel -= 1
        if init_c is not None:
            init_c(st, env)
        while True:
            st.fuel -= 1
            if st.fuel < 0:
                raise Trap("fuel")
            if test is not None and not test(st, env):
                return None
            signal = body_c(st, env)
            if signal is not None and signal is not CONTINUE:
                return None if signal is BREAK else signal
            if step_c is not None:
                step_c(st, env)

    return for_


def return_stmt(comp: Compiler, s: GenericValue) -> Callable:
    """`return`, with the optional value in the statement's one child."""
    opt = s.args[0]
    if not opt.args:
        return jump((None,))

    def return_(st, env, code=comp.expr(opt.args[0])):
        st.fuel -= 1
        return (code(st, env),)

    return return_


def jump(signal) -> Callable:
    def jump(st, env, signal=signal):
        st.fuel -= 1
        return signal

    return jump


def block_stmt(comp: Compiler, s: GenericValue) -> Callable:
    def block_(st, env, block_c=comp.block(s.args[0])):
        st.fuel -= 1
        return block_c(st, env)

    return block_


class CCompiler(Compiler):
    """Compiles the statements `parse_c_stmt` parses and the expressions
    MiniC and MiniJS share.  A subclass supplies `body(node)`, which
    compiles the body of an if or a loop, and `truthy`."""

    STMT = {
        "ExprStmt": expr_stmt,
        "IfStmt": _if_stmt,
        "WhileStmt": while_stmt,
        "ForStmt": _for_stmt,
        "ReturnStmt": return_stmt,
        "BreakStmt": lambda comp, s: jump(BREAK),
        "ContinueStmt": lambda comp, s: jump(CONTINUE),
        "BlockStmt": block_stmt,
    }
    EXPR = {**EXPRESSIONS, "BoolLit": literal, "AssignE": _assign_expr}
    BOOL_OPS = COMPARISONS | {"==", "!="}


# The kinds of open bracket in `expression_parser`'s loop, and the binding
# power, which no binary operator has, that marks a prefix operator on
# its operator stack.
_PAREN, _INDEX, _CALL, _ARRAY, _ASSIGN = range(5)
_PREFIX = 1 << 30


def expression_parser(
    prec: dict[str, int],
    not_op: str,
    num: str,
    keywords: frozenset[str],
    nil: tuple[str, str] | None = None,
    array: bool = False,
    targets: tuple[str, ...] = (),
    target_message: str = "",
) -> Callable[..., GenericValue]:
    """A language's expression parser, `parse(ts)`.

    An operand is any number of prefix `not_op` and `-` operators before
    a primary with `[index]` and `.member` suffixes.  A primary is an
    integer literal (constructor `num`), `true`, `false`, the `nil`
    keyword and constructor if the language has one, a variable, a call,
    a parenthesized expression, or with `array` a `[...]` array literal.
    Operands are joined by the left-associative binary operators of
    `prec`, op or keyword tokens mapped to their binding power.  With
    `targets`, `=` is right-associative assignment: the expression
    before it, fully reduced, must have a constructor in `targets`, else
    `target_message` is raised at the `=`.  `parse(ts, postfix_only=True)`
    parses one operand with no prefix operator, binary operator or `=`
    outside brackets.

    One loop parses the whole expression (Pratt, "Top Down Operator
    Precedence", POPL 1973; Dijkstra's shunting-yard algorithm) over three
    stacks: the left operands of pending binary operators, the operators,
    and the open brackets (parentheses, an index, call arguments, array
    items and the right side of an assignment).  So nesting takes no
    Python frames, and tokens are read by index, not through `ts`.
    """
    nil_kw, nil_ctor = nil or (None, None)
    power = prec.get

    def parse(ts: TokenStream, postfix_only: bool = False) -> GenericValue:
        toks = ts.tokens
        i = ts.pos
        vals: list = []    # the left operand of each pending binary operator
        ops: list = []     # (binding power, operator), prefix ones at _PREFIX
        frames: list = []  # (kind, the enclosing base, payload) per bracket
        base = 0           # len(ops) when the innermost bracket opened
        while True:
            # An operand: prefix operators, then a primary.  A bracket
            # pushes a frame and parses its first operand next.
            tok = toks[i]
            kind, value = tok[0], tok[1]
            if frames or not postfix_only:
                while (value == "-" or value == not_op) and (kind == "op" or kind == "name"):
                    ops.append((_PREFIX, value))
                    i += 1
                    tok = toks[i]
                    kind, value = tok[0], tok[1]
            if kind == "name" and value not in keywords:
                i += 1
                e = GV("Ident", (value,))
                tok = toks[i]
                if tok[1] != "(" or tok[0] != "op":
                    e = GV("VarE", (e,))
                else:
                    i += 1
                    tok = toks[i]
                    if tok[1] != ")" or tok[0] != "op":
                        frames.append((_CALL, base, (e, [])))
                        base = len(ops)
                        continue
                    i += 1
                    e = GV("CallE", (e, ()))
            elif kind == "num":
                i += 1
                e = GV(num, (int(value),))
            elif kind == "name":
                if value == "true" or value == "false":
                    e = GV("BoolLit", (value == "true",))
                elif value == nil_kw:
                    e = GV(nil_ctor)
                else:
                    raise ParseError(f"expected an identifier, got {value!r}", tok[2], tok[3])
                i += 1
            elif kind == "op" and value == "(":
                i += 1
                frames.append((_PAREN, base, None))
                base = len(ops)
                continue
            elif array and kind == "op" and value == "[":
                i += 1
                tok = toks[i]
                if tok[1] != "]" or tok[0] != "op":
                    frames.append((_ARRAY, base, []))
                    base = len(ops)
                    continue
                i += 1
                e = GV("ArrayE", ((),))
            else:
                raise ParseError(f"expected an expression, got {value!r}", tok[2], tok[3])

            # `e` is a primary, or a bracket's value: its suffixes, its
            # prefix operators, then a binary operator, `=` or a closer.
            while True:
                tok = toks[i]
                kind, value = tok[0], tok[1]
                if kind == "op":
                    if value == "[":
                        i += 1
                        frames.append((_INDEX, base, e))
                        base = len(ops)
                        break
                    if value == ".":
                        tok = toks[i + 1]
                        if tok[0] != "name" or tok[1] in keywords:
                            raise ParseError(
                                f"expected an identifier, got {tok[1]!r}", tok[2], tok[3]
                            )
                        i += 2
                        e = GV("MemberE", (e, tok[1]))
                        continue
                if postfix_only and not frames:
                    ts.pos = i
                    return e
                while len(ops) > base and ops[-1][0] == _PREFIX:
                    e = GV("UnaryE", (ops.pop()[1], e))
                p = power(value) if kind == "op" or kind == "name" else None
                if p is not None:
                    while len(ops) > base and ops[-1][0] >= p:
                        e = GV("BinE", (ops.pop()[1], vals.pop(), e))
                    ops.append((p, value))
                    vals.append(e)
                    i += 1
                    break
                # the end of the expression in the innermost bracket
                while len(ops) > base:
                    e = GV("BinE", (ops.pop()[1], vals.pop(), e))
                if targets and value == "=" and kind == "op":
                    if e.ctor not in targets:
                        raise ParseError(target_message, tok[2], tok[3])
                    i += 1
                    frames.append((_ASSIGN, base, e))
                    break
                while frames and frames[-1][0] == _ASSIGN:
                    _, base, lhs = frames.pop()
                    e = GV("AssignE", (lhs, e))
                if not frames:
                    ts.pos = i
                    return e
                bracket, outer, payload = frames[-1]
                if bracket == _CALL or bracket == _ARRAY:
                    items = payload[1] if bracket == _CALL else payload
                    items.append(e)
                    if value == "," and kind == "op":
                        i += 1
                        break
                closer = ")" if bracket == _PAREN or bracket == _CALL else "]"
                if value != closer or kind != "op":
                    raise ParseError(f"expected {closer!r}, got {value!r}", tok[2], tok[3])
                i += 1
                frames.pop()
                base = outer
                if bracket == _INDEX:
                    e = GV("IndexE", (payload, e))
                elif bracket == _CALL:
                    e = GV("CallE", (payload[0], tuple(items)))
                elif bracket == _ARRAY:
                    e = GV("ArrayE", (tuple(items),))

    return parse


def expr_printer(prec: dict[str, int], own: Callable) -> Callable[..., str]:
    """A language's expression printer: the constructors the bundled
    languages print alike, then `own(e, ctx)` for the rest.  `ctx` is the
    binding power of the context; a looser expression is parenthesized."""

    def show(e: GenericValue, ctx: int = 0) -> str:
        c = e.ctor
        if c == "NumLit" or c == "IntLit":
            return str(e.args[0])
        if c == "BoolLit":
            return "true" if e.args[0] else "false"
        if c == "VarE":
            return e.args[0].args[0]
        if c == "IndexE":
            return f"{show(e.args[0], 9)}[{show(e.args[1])}]"
        if c == "MemberE":
            return f"{show(e.args[0], 9)}.{e.args[1]}"
        if c == "CallE":
            return f"{e.args[0].args[0]}({', '.join(show(a) for a in e.args[1])})"
        if c == "BinE":
            op = e.args[0]
            p = prec[op]
            out = f"{show(e.args[1], p)} {op} {show(e.args[2], p + 1)}"
            return f"({out})" if ctx > p else out
        if c == "AssignE":
            out = f"{show(e.args[0], 9)} = {show(e.args[1], 1)}"
            return f"({out})" if ctx > 1 else out
        return own(e, ctx)

    return show


# Layout marks: the lines after INDENT sit one level deeper, until DEDENT.
INDENT, DEDENT = 1, -1


def render(parts, layout: Callable) -> str:
    """The text of a layout: `parts` in order, each a line, INDENT or
    DEDENT, or a node whose parts are `layout(node)`, expanded in its
    place.  Each line is indented two spaces per level, and the text
    ends with a newline.  The parts still to print wait on an explicit
    stack, so nesting takes no Python frames."""
    lines: list[str] = []
    depth = 0
    indent = ""
    todo = list(reversed(parts))
    while todo:
        part = todo.pop()
        if part.__class__ is str:
            lines.append(indent + part if part else "")
        elif part.__class__ is int:
            depth += part
            indent = "  " * depth
        else:
            todo.extend(reversed(layout(part)))
    return "\n".join(lines) + "\n"
