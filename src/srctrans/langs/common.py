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
    and_test,
    literal,
    local_assignment,
    or_test,
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

_UNESCAPE = re.compile(r"\\(.)", re.DOTALL).sub


def token_value(text: str) -> str:
    """The value of the token `text`: a string's is its text without the
    quotes and escapes, any other token's is its text."""
    if text[:1] in ("'", '"'):
        return _UNESCAPE(r"\1", text[1:-1])
    return text


def lexer(
    operators: list[str], line_comment: str, strings: bool = False
) -> tuple[Callable[[str], list[Token]], Callable[..., TokenStream]]:
    """A language's lexer over names, decimal integers, operators and,
    with `strings`, quoted strings, compiled into one regular expression.
    It returns `tokenize(text)`, the tokens with their kinds, values and
    positions, and `scan(text, keywords)`, the `TokenStream` a parser
    reads: the token texts of one `findall`, ended by the eof text "",
    and the kind of each distinct text.  A string keeps its quotes, so
    a token's text gives its kind, and `scan` leaves positions to
    `tokenize`, which a `TokenStream` calls only to raise an error.

    Operators use longest match.  A column counts every character before
    it on its line except comment characters, and a backslash-escaped
    newline inside a string does not start a line.  A name starts with
    a letter or `_`; a number is a run of decimal digits, which `int`
    always accepts.
    """
    ops = "|".join(map(re.escape, sorted(operators, key=len, reverse=True)))
    string = r"""|"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*'""" if strings else ""
    comment = re.escape(line_comment)
    # each match: the space and comments before a token, then the token,
    # the empty text at the end, or any other character, which the kind
    # rules reject; so each match starts where the last one ended, and
    # none is tried again from a later position
    pattern = re.compile(
        rf"\s*(?:{comment}[^\n]*\s*)*(\d+|[^\W\d]\w*{string}|{ops}|\S|\Z)", re.DOTALL
    )
    findall, finditer = pattern.findall, pattern.finditer
    exact = dict.fromkeys(operators, "op")
    exact[""] = "eof"
    first = dict.fromkeys(_ASCII_LETTERS + "_", "name")
    first.update(dict.fromkeys(_DIGITS, "num"))
    exact_kind, first_kind = exact.get, first.get

    def rare_kind(tok: str) -> str | None:
        """The kind of a text that the tables do not give, or None for a
        lone quote or an unexpected character."""
        c = tok[0]
        if c in "'\"":
            return "string" if strings and len(tok) > 1 else None
        if c.isdecimal():
            return "num"
        if c.isalpha():
            return "name"
        return None

    def tokenize(text: str) -> list[Token]:
        toks: list[Token] = []
        line = col = 1
        for m in finditer(text):
            skip = m.start()
            start, end = m.span(1)
            if start > skip:
                skipped = text[skip:start]
                newline = skipped.rfind("\n")
                if newline >= 0:
                    line += skipped.count("\n")
                    col = 1
                    skipped = skipped[newline + 1:]
                # only a comment that runs to the end of the text is
                # left after the last newline
                cut = skipped.find(line_comment)
                col += len(skipped) if cut < 0 else cut
            tok = m[1]
            kind = exact_kind(tok) or first_kind(tok[0]) or rare_kind(tok)
            if kind is None:
                c = tok[0]
                raise ParseError(
                    "unterminated string" if strings and c in "'\"" else
                    f"unexpected character {c!r}", line, col,
                )
            toks.append(Token(kind, token_value(tok), line, col))
            if not tok:  # the last match is always the eof text
                return toks
            col += end - start

    def scan(text: str, keywords: frozenset[str]) -> TokenStream:
        toks = findall(text)
        if len(toks) > 1 and not toks[-2]:
            # after space or a comment that ends the text, `\Z` matches
            # once more, at the end
            del toks[-1]
        kinds = {
            tok: exact_kind(tok) or first_kind(tok[0]) or rare_kind(tok) for tok in set(toks)
        }
        if None in kinds.values():
            tokenize(text)  # raises the first lexing error, at its position
        return TokenStream(toks, kinds, keywords, lambda: tokenize(text))

    return tokenize, scan


class TokenStream:
    """Cursor over a file's token texts with the usual expect/accept
    helpers.  The list ends with the eof text "", which `next` never
    passes, and `kinds` maps each distinct text to its kind.  No text of
    one kind equals a text of another, so a keyword or operator test is
    a comparison of texts.  An error takes its token's line and column
    from `positions()`, the file's exact tokens."""

    def __init__(self, tokens: list[str], kinds: dict[str, str],
                 keywords: frozenset[str], positions: Callable[[], list[Token]]):
        self.tokens = tokens
        self.kinds = kinds
        self.pos = 0
        self.keywords = keywords
        self.positions = positions
        self.in_loop = False

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def error_at(self, i: int, message: str) -> ParseError:
        tok = self.positions()[i]
        return ParseError(message, tok.line, tok.col)

    def error(self, message: str) -> ParseError:
        return self.error_at(self.pos, message)

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok != text:
            raise self.error(f"expected {text!r}, got {token_value(tok)!r}")
        self.pos += 1

    def expect_name(self) -> str:
        tok = self.tokens[self.pos]
        if self.kinds[tok] != "name" or tok in self.keywords:
            raise self.error(f"expected an identifier, got {token_value(tok)!r}")
        self.pos += 1
        return tok

    def comma_list(self, item: Callable, closer: str | None = None) -> list:
        """`item(self)` results separated by commas.  With a closer, the
        list may be empty and the closer is consumed."""
        if closer is not None and self.accept(closer):
            return []
        items = [item(self)]
        while self.accept(","):
            items.append(item(self))
        if closer is not None:
            self.expect(closer)
        return items

    def loop_body(self, parse: Callable, in_loop: bool = True):
        """`parse(self)` for a loop body, or for a function body with
        in_loop=False: break and continue parse only inside a loop."""
        outer, self.in_loop = self.in_loop, in_loop
        body = parse(self)
        self.in_loop = outer
        return body

    def accept_jump(self, kw: str) -> bool:
        """accept for `break`/`continue`, rejecting one outside a loop."""
        if self.tokens[self.pos] != kw:
            return False
        if not self.in_loop:
            raise self.error(f"{kw!r} outside a loop")
        self.pos += 1
        return True


def parse_ident(ts: TokenStream) -> GenericValue:
    return GV("Ident", (ts.expect_name(),))


def parse_c_stmt(ts: TokenStream, expr: Callable, body: Callable,
                 block: Callable, decl_kw: str | None = None) -> GenericValue:
    """A statement of the C-like grammar MiniC and MiniJS share.  `body`
    parses the body of if, while and for, `block` a braced block; a for
    header may not start with the declaration keyword `decl_kw`."""
    if ts.tokens[ts.pos] in _C_STMT_KWS:
        if ts.accept("if"):
            ts.expect("(")
            cond = expr(ts)
            ts.expect(")")
            then = body(ts)
            els = GV("SomeElse", (body(ts),)) if ts.accept("else") else GV("NoElse")
            return GV("IfStmt", (cond, then, els))
        if ts.accept("while"):
            ts.expect("(")
            cond = expr(ts)
            ts.expect(")")
            return GV("WhileStmt", (cond, ts.loop_body(body)))
        if ts.accept("for"):
            ts.expect("(")
            if decl_kw is not None and ts.at(decl_kw):
                raise ts.error("declarations are not allowed in a for header")
            init = _parse_opt_expr(ts, expr, ";")
            ts.expect(";")
            cond = _parse_opt_expr(ts, expr, ";")
            ts.expect(";")
            step = _parse_opt_expr(ts, expr, ")")
            ts.expect(")")
            return GV("ForStmt", (init, cond, step, ts.loop_body(body)))
        if ts.accept("return"):
            opt = _parse_opt_expr(ts, expr, ";")
            ts.expect(";")
            return GV("ReturnStmt", (opt,))
        if ts.accept_jump("break"):
            ts.expect(";")
            return GV("BreakStmt")
        if ts.accept_jump("continue"):
            ts.expect(";")
            return GV("ContinueStmt")
    if ts.at("{"):
        return GV("BlockStmt", (block(ts),))
    e = expr(ts)
    ts.expect(";")
    return GV("ExprStmt", (e,))


# The keywords that start a statement of parse_c_stmt.
_C_STMT_KWS = frozenset({"if", "while", "for", "return", "break", "continue"})


def _parse_opt_expr(ts: TokenStream, expr: Callable, closer: str) -> GenericValue:
    if ts.at(closer):
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
    e = s.args[0]
    if e.ctor == "AssignE":
        code = comp.constant_store(*e.args, 2)
        if code is not None:
            return code
    code = comp.expr(e)
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
    JUNCTIONS = {"&&": and_test, "||": or_test}


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
        kinds = ts.kinds
        i = ts.pos
        vals: list = []    # the left operand of each pending binary operator
        ops: list = []     # (binding power, operator), prefix ones at _PREFIX
        frames: list = []  # (kind, the enclosing base, payload) per bracket
        base = 0           # len(ops) when the innermost bracket opened
        while True:
            # An operand: prefix operators, then a primary.  A bracket
            # pushes a frame and parses its first operand next.
            tok = toks[i]
            if frames or not postfix_only:
                while tok == "-" or tok == not_op:
                    ops.append((_PREFIX, tok))
                    i += 1
                    tok = toks[i]
            kind = kinds[tok]
            if kind == "name" and tok not in keywords:
                i += 1
                e = GV("Ident", (tok,))
                if toks[i] != "(":
                    e = GV("VarE", (e,))
                else:
                    i += 1
                    if toks[i] != ")":
                        frames.append((_CALL, base, (e, [])))
                        base = len(ops)
                        continue
                    i += 1
                    e = GV("CallE", (e, ()))
            elif kind == "num":
                i += 1
                e = GV(num, (int(tok),))
            elif kind == "name":
                if tok == "true" or tok == "false":
                    e = GV("BoolLit", (tok == "true",))
                elif tok == nil_kw:
                    e = GV(nil_ctor)
                else:
                    raise ts.error_at(i, f"expected an identifier, got {tok!r}")
                i += 1
            elif tok == "(":
                i += 1
                frames.append((_PAREN, base, None))
                base = len(ops)
                continue
            elif array and tok == "[":
                i += 1
                if toks[i] != "]":
                    frames.append((_ARRAY, base, []))
                    base = len(ops)
                    continue
                i += 1
                e = GV("ArrayE", ((),))
            else:
                raise ts.error_at(i, f"expected an expression, got {token_value(tok)!r}")

            # `e` is a primary, or a bracket's value: its suffixes, its
            # prefix operators, then a binary operator, `=` or a closer.
            while True:
                tok = toks[i]
                if tok == "[":
                    i += 1
                    frames.append((_INDEX, base, e))
                    base = len(ops)
                    break
                if tok == ".":
                    member = toks[i + 1]
                    if kinds[member] != "name" or member in keywords:
                        raise ts.error_at(
                            i + 1, f"expected an identifier, got {token_value(member)!r}"
                        )
                    i += 2
                    e = GV("MemberE", (e, member))
                    continue
                if postfix_only and not frames:
                    ts.pos = i
                    return e
                while len(ops) > base and ops[-1][0] == _PREFIX:
                    e = GV("UnaryE", (ops.pop()[1], e))
                p = power(tok)
                if p is not None:
                    while len(ops) > base and ops[-1][0] >= p:
                        e = GV("BinE", (ops.pop()[1], vals.pop(), e))
                    ops.append((p, tok))
                    vals.append(e)
                    i += 1
                    break
                # the end of the expression in the innermost bracket
                while len(ops) > base:
                    e = GV("BinE", (ops.pop()[1], vals.pop(), e))
                if targets and tok == "=":
                    if e.ctor not in targets:
                        raise ts.error_at(i, target_message)
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
                    if tok == ",":
                        i += 1
                        break
                closer = ")" if bracket == _PAREN or bracket == _CALL else "]"
                if tok != closer:
                    raise ts.error_at(i, f"expected {closer!r}, got {token_value(tok)!r}")
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
