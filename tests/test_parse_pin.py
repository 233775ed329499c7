"""Pins of the expression parser's results and errors.

(a) A hand-written table: per language, the exact `ParseError` text of
inputs that end an expression early, close a bracket wrongly or assign
to what is not a target, and the shape of inputs that parse.  (b) A
seeded token-mutation fuzz: 300 generated programs per language, each
with tokens deleted, duplicated or swapped with the next one; the hash
covers every outcome (the parsed value, the `ParseError` text or the
class of any other exception).  The character fuzz of
`test_lexer_pin.py` mostly stops in the lexer; this one reaches the
parser's error paths.

Both were recorded on the recursive-descent expression parser, before
expressions were parsed in one loop.
"""

import hashlib
import random
from importlib import import_module

import pytest

from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language
from srctrans.langs.common import ParseError
from srctrans.schema import GenericValue

LANGS = ("minic", "minijs", "minilua")


def _program(lname: str, stmt: str) -> str:
    """`stmt` as the body of MiniC/MiniJS `main` (line 2, from column 3),
    or as a MiniLua chunk (line 1)."""
    if lname == "minic":
        return f"int main() {{\n  {stmt}\n}}\n"
    if lname == "minijs":
        return f"function main() {{\n  {stmt}\n}}\n"
    return stmt + "\n"


def _error(lname: str, text: str) -> str:
    with pytest.raises(ParseError) as e:
        get_language(lname).parse(text)
    return str(e.value)


# (statement, the ParseError text), per language
C_ERRORS = [
    ("return (1 + 2;", "line 2, col 16: expected ')', got ';'"),
    ("return a[1;", "line 2, col 13: expected ']', got ';'"),
    ("return f(1, 2;", "line 2, col 16: expected ')', got ';'"),
    ("return f(1,);", "line 2, col 14: expected an expression, got ')'"),
    ("return f(a b);", "line 2, col 14: expected ')', got 'b'"),
    ("return a[];", "line 2, col 12: expected an expression, got ']'"),
    ("return a + ;", "line 2, col 14: expected an expression, got ';'"),
    ("return - ;", "line 2, col 12: expected an expression, got ';'"),
    ("return ! ;", "line 2, col 12: expected an expression, got ';'"),
    ("return if;", "line 2, col 10: expected an identifier, got 'if'"),
    ("return 1 + while;", "line 2, col 14: expected an identifier, got 'while'"),
    ("return -int;", "line 2, col 11: expected an identifier, got 'int'"),
    ("1 = 2;", "line 2, col 5: assignment target must be a variable or index"),
    ("a + b = c;", "line 2, col 9: assignment target must be a variable or index"),
    ("a = b + c = d;", "line 2, col 13: assignment target must be a variable or index"),
    ("-a = 1;", "line 2, col 6: assignment target must be a variable or index"),
    ("!a = 1;", "line 2, col 6: assignment target must be a variable or index"),
    ("f(1) = 2;", "line 2, col 8: assignment target must be a variable or index"),
    ("true = 1;", "line 2, col 8: assignment target must be a variable or index"),
    ("(a = 1) = 2;", "line 2, col 11: assignment target must be a variable or index"),
    ("a = = 1;", "line 2, col 7: expected an expression, got '='"),
    ("a = 1 = 2;", "line 2, col 9: assignment target must be a variable or index"),
    ("x = (a = 1;", "line 2, col 13: expected ')', got ';'"),
    ("f(a = b c);", "line 2, col 11: expected ')', got 'c'"),
    ("a[b = 1 2] = 3;", "line 2, col 11: expected ']', got '2'"),
    ("return (1 2);", "line 2, col 13: expected ')', got '2'"),
    ("return )", "line 2, col 10: expected an expression, got ')'"),
    ("return a b;", "line 2, col 12: expected ';', got 'b'"),
    ("return 1 + 2 3;", "line 2, col 16: expected ';', got '3'"),
    ("return a[1][;", "line 2, col 15: expected an expression, got ';'"),
    ("return f(g(1);", "line 2, col 16: expected ')', got ';'"),
    ("return -(-(1;", "line 2, col 15: expected ')', got ';'"),
    ("return a.b;", "line 2, col 11: unexpected character '.'"),
]
JS_ERRORS = [
    ("return (1 + 2;", "line 2, col 16: expected ')', got ';'"),
    ("return a[1;", "line 2, col 13: expected ']', got ';'"),
    ("return f(1, 2;", "line 2, col 16: expected ')', got ';'"),
    ("return f(1,);", "line 2, col 14: expected an expression, got ')'"),
    ("return f(a b);", "line 2, col 14: expected ')', got 'b'"),
    ("return a[];", "line 2, col 12: expected an expression, got ']'"),
    ("return a.if;", "line 2, col 12: expected an identifier, got 'if'"),
    ("return a.;", "line 2, col 12: expected an identifier, got ';'"),
    ("return a.1;", "line 2, col 12: expected an identifier, got '1'"),
    ("return a + ;", "line 2, col 14: expected an expression, got ';'"),
    ("return - ;", "line 2, col 12: expected an expression, got ';'"),
    ("return if;", "line 2, col 10: expected an identifier, got 'if'"),
    ("return var;", "line 2, col 10: expected an identifier, got 'var'"),
    ("return - \"x\";", "line 2, col 12: expected an expression, got 'x'"),
    ("return \"-\" 1;", "line 2, col 10: expected an expression, got '-'"),
    ("return a \"+\" 1;", "line 2, col 12: expected ';', got '+'"),
    ("1 = 2;", "line 2, col 5: assignment target must be a variable, index or member"),
    ("a + b = c;", "line 2, col 9: assignment target must be a variable, index or member"),
    ("a = b + c = d;",
     "line 2, col 13: assignment target must be a variable, index or member"),
    ("-a = 1;", "line 2, col 6: assignment target must be a variable, index or member"),
    ("undefined = 1;",
     "line 2, col 13: assignment target must be a variable, index or member"),
    ("[1] = 2;", "line 2, col 7: assignment target must be a variable, index or member"),
    ("x = [1, 2;", "line 2, col 12: expected ']', got ';'"),
    ("x = [1 2];", "line 2, col 10: expected ']', got '2'"),
    ("x = [1,];", "line 2, col 10: expected an expression, got ']'"),
    ("x = [,];", "line 2, col 8: expected an expression, got ','"),
    ("x = [a = 1 2];", "line 2, col 14: expected ']', got '2'"),
    ("return a.b c;", "line 2, col 14: expected ';', got 'c'"),
    ("return (a).if;", "line 2, col 14: expected an identifier, got 'if'"),
]
LUA_ERRORS = [
    ("return (1 + 2", "line 2, col 1: expected ')', got ''"),
    ("return a[1", "line 2, col 1: expected ']', got ''"),
    ("return f(1, 2", "line 2, col 1: expected ')', got ''"),
    ("return f(1,)", "line 1, col 12: expected an expression, got ')'"),
    ("return f(a b)", "line 1, col 12: expected ')', got 'b'"),
    ("return a[]", "line 1, col 10: expected an expression, got ']'"),
    ("return x.", "line 2, col 1: expected an identifier, got ''"),
    ("return a.if", "line 1, col 10: expected an identifier, got 'if'"),
    ("return a + ;", "line 1, col 12: expected an expression, got ';'"),
    ("return - ;", "line 1, col 10: expected an expression, got ';'"),
    ("return not ;", "line 1, col 12: expected an expression, got ';'"),
    ("return if", "line 1, col 8: expected an identifier, got 'if'"),
    ("return not and", "line 1, col 12: expected an identifier, got 'and'"),
    ("return 1 or end", "line 1, col 13: expected an identifier, got 'end'"),
    ("1 = 2", "line 1, col 3: assignment target must be a variable, index or member"),
    ("a + b = c", "line 1, col 3: expression statements must be calls"),
    ("a = b + c = d", "line 1, col 11: expected an expression, got '='"),
    ("-a = 1", "line 1, col 1: expected an expression, got '-'"),
    ("-x = 1", "line 1, col 1: expected an expression, got '-'"),
    ("not x = 1", "line 1, col 1: expected an identifier, got 'not'"),
    ("x + 1", "line 1, col 3: expression statements must be calls"),
    ("x", "line 2, col 1: expression statements must be calls"),
    ("(x) + 1", "line 1, col 5: expression statements must be calls"),
    ("f(1) + 1", "line 1, col 6: expected an expression, got '+'"),
    ("x, 1 = 2", "line 1, col 6: assignment target must be a variable, index or member"),
    ("x, f(1) = 2", "line 1, col 9: assignment target must be a variable, index or member"),
    ("f(1), x = 2", "line 1, col 9: assignment target must be a variable, index or member"),
    ("x = 1 = 2", "line 1, col 7: expected an expression, got '='"),
    ("return a = 1", "line 1, col 10: expected an expression, got '='"),
    ("local x = (y = 1)", "line 1, col 14: expected ')', got '='"),
    ("f(a = 1)", "line 1, col 5: expected ')', got '='"),
    ("(1)", "line 2, col 1: expression statements must be calls"),
    ("(f)(1)", "line 1, col 4: expression statements must be calls"),
]


@pytest.mark.parametrize("lname, rows", [
    ("minic", C_ERRORS), ("minijs", JS_ERRORS), ("minilua", LUA_ERRORS),
])
def test_parse_error_texts(lname, rows):
    got = [(stmt, _error(lname, _program(lname, stmt))) for stmt, _ in rows]
    assert got == rows


def _shape(v) -> str:
    """A value in a compact form: `Ctor(arg, ...)`, identifiers as their
    name, variables as `$name`."""
    if isinstance(v, tuple):
        return "[" + ", ".join(map(_shape, v)) + "]"
    if not isinstance(v, GenericValue):
        return repr(v)
    if v.ctor == "Ident":
        return v.args[0]
    if v.ctor == "VarE":
        return "$" + v.args[0].args[0]
    return f"{v.ctor}({', '.join(map(_shape, v.args))})"


def _expr(lname: str, text: str):
    """The value of `return <text>` in a MiniC or MiniJS `main`, or of
    `return <text>` as a MiniLua chunk."""
    stmt = f"return {text}" + ("" if lname == "minilua" else ";")
    prog = get_language(lname).parse(_program(lname, stmt))
    if lname == "minic":
        ret = prog.args[0][0].args[3].args[0][0].args[0]
    elif lname == "minijs":
        ret = prog.args[0][0].args[2].args[1].args[0][0]
    else:
        ret = prog.args[0].args[0][0]
    return ret.args[0].args[0]


SHAPES = [
    ("minic", "a - b - c", "BinE('-', BinE('-', $a, $b), $c)"),
    ("minic", "a = b = c", "AssignE($a, AssignE($b, $c))"),
    ("minic", "a[i] = b + c * d",
     "AssignE(IndexE($a, $i), BinE('+', $b, BinE('*', $c, $d)))"),
    ("minic", "-a * -b[1]", "BinE('*', UnaryE('-', $a), UnaryE('-', IndexE($b, IntLit(1))))"),
    ("minic", "!!(a || b && c)",
     "UnaryE('!', UnaryE('!', BinE('||', $a, BinE('&&', $b, $c))))"),
    ("minic", "(a) = f(x = 1, (y), g())[2]",
     "AssignE($a, IndexE(CallE(f, [AssignE($x, IntLit(1)), $y, CallE(g, [])]), IntLit(2)))"),
    ("minic", "a < b == c > d - 1 % e",
     "BinE('==', BinE('<', $a, $b), BinE('>', $c, BinE('-', $d, BinE('%', IntLit(1), $e))))"),
    ("minic", "1 + (a = 2) + 3",
     "BinE('+', BinE('+', IntLit(1), AssignE($a, IntLit(2))), IntLit(3))"),
    ("minic", "(a = 1)[0]", "IndexE(AssignE($a, IntLit(1)), IntLit(0))"),
    ("minic", "- true", "UnaryE('-', BoolLit(True))"),
    ("minijs", "a.b[c].d = [x = 1, [], undefined]",
     "AssignE(MemberE(IndexE(MemberE($a, 'b'), $c), 'd'), "
     "ArrayE([AssignE($x, NumLit(1)), ArrayE([]), UndefLit()]))"),
    ("minijs", "-a.b + f(1).c", "BinE('+', UnaryE('-', MemberE($a, 'b')), "
     "MemberE(CallE(f, [NumLit(1)]), 'c'))"),
    ("minijs", "[1][0] - -1", "BinE('-', IndexE(ArrayE([NumLit(1)]), NumLit(0)), "
     "UnaryE('-', NumLit(1)))"),
    ("minijs", "a = b.c = d[0] = 1",
     "AssignE($a, AssignE(MemberE($b, 'c'), AssignE(IndexE($d, NumLit(0)), NumLit(1))))"),
    ("minilua", "not a == b and - - c or nil",
     "BinE('or', BinE('and', BinE('==', UnaryE('not', $a), $b), "
     "UnaryE('-', UnaryE('-', $c))), NilLit())"),
    ("minilua", "a.b[f(1, x)].c - 2 - 3",
     "BinE('-', BinE('-', MemberE(IndexE(MemberE($a, 'b'), CallE(f, [NumLit(1), $x])), 'c'), "
     "NumLit(2)), NumLit(3))"),
    ("minilua", "(1).x ~= (a)", "BinE('~=', MemberE(NumLit(1), 'x'), $a)"),
]


@pytest.mark.parametrize("lname, text, shape", SHAPES)
def test_expression_shapes(lname, text, shape):
    assert _shape(_expr(lname, text)) == shape


def test_minilua_statement_heads():
    prog = get_language("minilua").parse("a.b, (c)[1] = f(1), 2\nf(x.y[-1], (2))\n")
    assert _shape(prog) == (
        "Chunk(Block([AssignStmt(LhsList([MemberE($a, 'b'), IndexE($c, NumLit(1))]), "
        "ExprList([CallE(f, [NumLit(1)]), NumLit(2)])), "
        "CallStmt(CallE(f, [IndexE(MemberE($x, 'y'), UnaryE('-', NumLit(1))), NumLit(2)]))]))"
    )


# ---------------------------------------------------------------------------
# Token-mutation fuzz

PINNED = {
    "minic": "714b843948821df60d1bfb4b2c122097a9266f41798fef497bded306302028f2",
    "minijs": "0664f810975e3a2e48268e7b413732d4da955a781fbb957cf2e7dfcea48eefe5",
    "minilua": "5c126a27f6558ef372dc0d6b028f2e113de2bb8a490c864886510d09cff4567c",
}


def _token_text(tok) -> str:
    if tok.kind == "string":
        return '"' + tok.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return tok.value


def _mutants(lname: str, count: int = 300) -> list[str]:
    """`count` generated programs with 1-3 token edits each, printed
    with a line break where the source line changes, else a space."""
    tokenize = import_module(f"srctrans.langs.{lname}").tokenize
    rng = random.Random(f"token-fuzz-{lname}")
    out = []
    for seed in range(count):
        toks = tokenize(gen_program(lname, GenConfig(seed=seed)))[:-1]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(toks) - 1)
            edit = rng.choice(("delete", "duplicate", "swap"))
            if edit == "delete":
                del toks[i]
            elif edit == "duplicate":
                toks.insert(i, toks[i])
            else:
                toks[i], toks[i + 1] = toks[i + 1], toks[i]
        text, line = "", toks[0].line
        for tok in toks:
            text += ("\n" if tok.line != line else " ") + _token_text(tok)
            line = tok.line
        out.append(text + "\n")
    return out


def _outcome(lname: str, text: str) -> str:
    try:
        return repr(get_language(lname).parse(text))
    except ParseError as e:
        return f"ParseError: {e}"
    except Exception as e:  # any other failure: its class is the outcome
        return type(e).__name__


def token_fuzz_hash(lname: str) -> str:
    outcomes = "\n".join(_outcome(lname, t) for t in _mutants(lname))
    return hashlib.sha256(outcomes.encode()).hexdigest()


@pytest.mark.parametrize("lname", LANGS)
def test_token_fuzz_outcomes_pinned(lname):
    assert token_fuzz_hash(lname) == PINNED[lname]
