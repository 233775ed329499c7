"""MiniJS: a dynamically typed JavaScript subset frontend.

Functions, `var` declarations with multiple declarators, directive
prologues (the only place string literals may appear), array literals,
member access, assignment as an expression, and value-returning
short-circuit `&&`/`||`.  Statement bodies always require braces.
Assignment to an undeclared name creates a global; reading one traps.
"""

from __future__ import annotations

from collections.abc import Callable

from ..fragments import (
    ASSIGN_L,
    BLOCK_ITEM_L,
    BLOCK_L,
    IDENT_IS_BINDER,
    IDENT_L,
    LHS_L,
    LOCAL_VAR_INIT_L,
    MULTI_DECL_IS_ITEM,
    RHS_L,
    assign,
    ident,
    ident_names,
    multi_decl,
    opt_init,
    single_decl,
)
from ..runtime import (
    COV,
    TC,
    RunResult,
    Trap,
    and_value,
    call_user,
    equality,
    literal,
    member,
    nil_literal,
    or_value,
)
from ..schema import (
    GV,
    Case,
    GenericValue,
    list_items,
    modularize_schema,
    parse_schema_text,
    reader,
    walker,
)
from ..terms import NodeKind, Term, build_list, gc_paused
from .base import (
    BodyCodec,
    LanguageDef,
    TacOps,
    block_cases,
    c_item_view,
    constructors,
    declarator_cases,
    expect,
    func_body_paths,
    genericize,
    ident_assign_cases,
    pre_order,
    register,
)
from .common import (
    DEDENT,
    INDENT,
    CCompiler,
    TokenStream,
    c_stmt_layout,
    expr_printer,
    expression_parser,
    lexer,
    parse_c_stmt,
    parse_ident,
    render,
)

SCHEMA_TEXT = """
type Program = Program [FuncDef]
type FuncDef = FuncDef Ident [Ident] Block
type Ident = Ident String
type Block = Block [Directive] Stmts
type Directive = Directive String
type Stmts = Stmts [Stmt]
type Stmt = ExprStmt Expr | VarStmt [VarDtor] | IfStmt Expr Block OptElse | WhileStmt Expr Block | ForStmt OptExpr OptExpr OptExpr Block | ReturnStmt OptExpr | BreakStmt | ContinueStmt | BlockStmt Block
type OptElse = SomeElse Block | NoElse
type VarDtor = VarDtor Ident OptInit
type OptInit = SomeInit Expr | NoInit
type OptExpr = SomeExpr Expr | NoExpr
type Expr = NumLit Int | BoolLit Bool | UndefLit | VarE Ident | IndexE Expr Expr | MemberE Expr String | CallE Ident [Expr] | ArrayE [Expr] | UnaryE String Expr | BinE String Expr Expr | AssignE Expr Expr
"""

SCHEMA = parse_schema_text(SCHEMA_TEXT, name="MiniJS")
MOD = modularize_schema(SCHEMA)
S = MOD.sort_for
C = constructors(MOD)


# ---------------------------------------------------------------------------
# Parsing

_OPS = [
    "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
    "(", ")", "{", "}", "[", "]", ",", ";", ".",
]
_KEYWORDS = frozenset(
    {"function", "var", "if", "else", "while", "for", "return",
     "break", "continue", "true", "false", "undefined"}
)
# binding power of each binary operator, for the parser and the printer
_PREC = {"||": 2, "&&": 3, "==": 4, "!=": 4, "<": 5, "<=": 5,
         ">": 5, ">=": 5, "+": 6, "-": 6, "*": 7, "/": 7, "%": 7}


tokenize = lexer(_OPS, "//", strings=True)


@gc_paused
def parse(text: str) -> GenericValue:
    ts = TokenStream(tokenize(text), _KEYWORDS)
    funcs = []
    while ts.peek().kind != "eof":
        funcs.append(_parse_func(ts))
    ts.expect_eof()
    return GV("Program", (tuple(funcs),))


def _parse_func(ts: TokenStream) -> GenericValue:
    ts.expect_kw("function")
    name = parse_ident(ts)
    ts.expect_op("(")
    params = ts.comma_list(parse_ident, ")")
    return GV("FuncDef", (name, tuple(params), _parse_block(ts)))


def _parse_block(ts: TokenStream) -> GenericValue:
    ts.expect_op("{")
    directives = []
    while ts.peek().kind == "string":
        directives.append(GV("Directive", (ts.next().value,)))
        ts.expect_op(";")
    stmts = []
    while not ts.at_op("}"):
        stmts.append(_parse_stmt(ts))
    ts.expect_op("}")
    return GV("Block", (tuple(directives), GV("Stmts", (tuple(stmts),))))


def _parse_stmt(ts: TokenStream) -> GenericValue:
    if ts.accept_kw("var"):
        dtors = ts.comma_list(_parse_dtor)
        ts.expect_op(";")
        return GV("VarStmt", (tuple(dtors),))
    return parse_c_stmt(ts, _parse_expr, _parse_block, _parse_block, decl_kw="var")


def _parse_dtor(ts: TokenStream) -> GenericValue:
    name = parse_ident(ts)
    if ts.accept_op("="):
        opt = GV("SomeInit", (_parse_expr(ts),))
    else:
        opt = GV("NoInit")
    return GV("VarDtor", (name, opt))


_parse_expr = expression_parser(
    _PREC, "!", "NumLit", _KEYWORDS, nil=("undefined", "UndefLit"), array=True,
    targets=("VarE", "IndexE", "MemberE"),
    target_message="assignment target must be a variable, index or member",
)


# ---------------------------------------------------------------------------
# Pretty-printing

def _own_expr_str(e: GenericValue, ctx: int) -> str:
    c = e.ctor
    if c == "UndefLit":
        return "undefined"
    if c == "ArrayE":
        return "[" + ", ".join(_expr_str(a) for a in e.args[0]) + "]"
    if c == "UnaryE":
        out = f"{e.args[0]}{_expr_str(e.args[1], 8)}"
        return f"({out})" if ctx > 8 else out
    raise ValueError(f"not a MiniJS expression: {c}")


_expr_str = expr_printer(_PREC, _own_expr_str)


def _quote(s: str) -> str:
    # the lexer reads backslash-newline as a newline inside a string
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\\n")
    return '"' + escaped + '"'


def _inner(block: GenericValue) -> list:
    return [*(_quote(d.args[0]) + ";" for d in block.args[0]), *_stmts(block)]


def _body(header: str, block: GenericValue) -> tuple:
    return (header + " {", INDENT, *_inner(block), DEDENT, "}")


def _if_else(header: str, then: GenericValue, els: GenericValue) -> tuple:
    return (header + " {", INDENT, *_inner(then), DEDENT, *_body("} else", els))


def _var_stmt_layout(s: GenericValue) -> tuple:
    parts = []
    for dtor in s.args[0]:
        name = dtor.args[0].args[0]
        opt = dtor.args[1]
        if opt.ctor == "SomeInit":
            parts.append(f"{name} = {_expr_str(opt.args[0], 1)}")
        else:
            parts.append(name)
    return (f"var {', '.join(parts)};",)


_layout = c_stmt_layout(
    "MiniJS", _expr_str, _inner, _body, _if_else, {"VarStmt": _var_stmt_layout}
)


@gc_paused
def pretty(ast: GenericValue) -> str:
    parts = []
    for i, func in enumerate(ast.args[0]):
        if i:
            parts.append("")
        name, params, block = func.args
        plist = ", ".join(p.args[0] for p in params)
        parts += _body(f"function {name.args[0]}({plist})", block)
    return render(parts, _layout)


# ---------------------------------------------------------------------------
# Genericized signature and injections

IDENT_IS_MINIJS = NodeKind("IdentIsMiniJSIdent", (), (IDENT_L,), S("Ident"))
ASSIGN_IS_EXPR = NodeKind("AssignIsMiniJSExpr", (), (ASSIGN_L,), S("Expr"))
EXPR_IS_LHS = NodeKind("MiniJSExprIsLhs", (), (S("Expr"),), LHS_L)
EXPR_IS_RHS = NodeKind("MiniJSExprIsRhs", (), (S("Expr"),), RHS_L)
EXPR_IS_INIT = NodeKind("MiniJSExprIsLocalVarInit", (), (S("Expr"),), LOCAL_VAR_INIT_L)
STMT_IS_ITEM = NodeKind("MiniJSStmtIsBlockItem", (), (S("Stmt"),), BLOCK_ITEM_L)
BLOCK_IS_STMTS = NodeKind("GenericBlockIsMiniJSStmts", (), (BLOCK_L,), S("Stmts"))

_ident_term, _TRANS, _UNTRANS = ident_assign_cases(
    IDENT_IS_MINIJS, C.Ident, ASSIGN_IS_EXPR, EXPR_IS_LHS, EXPR_IS_RHS, C.AssignE,
    target="a MiniJS expression", source="a MiniJS expression",
)


class _Body(BodyCodec):
    """A MiniJS block carries directives before its statements."""

    def open_block(self, block: Term) -> tuple[Term, Term]:
        directives, stmts = block.children
        return super().open_block(stmts)[0], directives

    def close_block(self, generic: Term, directives: Term | None) -> Term:
        if directives is None:
            directives = build_list(S("Directive"), [])
        return C.Block(directives, super().close_block(generic, None))


BODY = _Body(BLOCK_IS_STMTS, STMT_IS_ITEM)
_DTOR_TRANS, _UN_DTOR = declarator_cases(
    C, C.VarDtor, IDENT_IS_MINIJS, EXPR_IS_INIT, "MiniJS", "a MiniJS expression"
)


def _un_decl(multi: Term) -> list:
    attrs, singles = multi.children
    expect(attrs.kind.name == "EmptyCommonAttrs", "MiniJS declarations carry no attributes")
    return [(_UN_DTOR, s) for s in singles.children]


_BLOCK_TRANS, _BLOCK_UNTRANS = block_cases(
    BODY, C.Stmts, C.VarStmt,
    lambda v, walk: multi_decl(list(map(walk, list_items(v.args[0])))),
    Case(_un_decl, lambda multi, dtors: GV("VarStmt", (tuple(dtors),))),
)
_CASES = {**_TRANS, **_DTOR_TRANS, **_BLOCK_TRANS}
IPS, TABLE = genericize(
    MOD, _CASES,
    [
        IDENT_IS_MINIJS, ASSIGN_IS_EXPR, EXPR_IS_LHS, EXPR_IS_RHS,
        EXPR_IS_INIT, STMT_IS_ITEM, BLOCK_IS_STMTS,
        IDENT_IS_BINDER, MULTI_DECL_IS_ITEM, C.ExprStmt.kind,
    ],
)
TABLE.compose(ASSIGN_L, S("Expr"), S("Stmt"))
TABLE.compose(ASSIGN_L, S("Stmt"), BLOCK_ITEM_L)
decompose = gc_paused(walker(MOD, _CASES))
recompose = gc_paused(reader(MOD, {**_UNTRANS, **_BLOCK_UNTRANS}))


# ---------------------------------------------------------------------------
# Syntactic operations

class _Ops:
    # `var x = <expr mentioning x>` resolves to the x being declared,
    # which holds undefined while the initializer runs.
    binder_in_scope_in_init = True

    def var_init_to_rhs(self, common_attrs: Term, decl_attrs: Term, init: Term) -> Term:
        expect(init.kind == EXPR_IS_INIT, "not a MiniJS initializer")
        return EXPR_IS_RHS.build(init.children[0])

    def var_decl_binder_to_lhs(self, binder: Term) -> Term:
        name = ident_names(binder)[0]
        return EXPR_IS_LHS.build(C.VarE(_ident_term(name)))


# ---------------------------------------------------------------------------
# Structural adapter

def _assign_item(target: Term, source: Term) -> Term:
    a = assign(EXPR_IS_LHS.build(target), EXPR_IS_RHS.build(source))
    return TABLE.inj(a, BLOCK_ITEM_L)


class _Adapter:
    item_view = staticmethod(c_item_view(C, BODY))
    # FuncDef children: name, params, block(directives, stmts).
    body_paths = staticmethod(func_body_paths((2, 1, 0)))

    def make_cov_marker(self, index: int) -> Term:
        cell = C.IndexE(
            C.MemberE("cov", C.VarE(_ident_term("TC"))),
            C.NumLit(index),
        )
        return _assign_item(cell, C.BoolLit(True))


# ---------------------------------------------------------------------------
# Three-address hooks

class _Tac(TacOps):
    def make_decl_item(self, name: str, init: Term | None) -> Term:
        if init is not None:
            init = EXPR_IS_INIT.build(init)
        single = single_decl(IDENT_IS_BINDER.build(ident(name)), opt_init(init))
        return MULTI_DECL_IS_ITEM.build(multi_decl([single]))

    def make_assign_item(self, target: Term, source: Term) -> Term:
        return _assign_item(target, source)

    def init_exprs(self, init: Term) -> tuple:
        expect(init.kind == EXPR_IS_INIT, "not a MiniJS initializer")

        def rebuild(exprs: list) -> Term:
            return EXPR_IS_INIT.build(exprs[0])

        return [init.children[0]], rebuild


# ---------------------------------------------------------------------------
# Evaluation

def _truthy(v) -> bool:
    if v is None:
        return False
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v != 0
    return True


def _same_value(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, list) != isinstance(b, list):
        return False
    if isinstance(a, list):
        return _same_arrays(a, b)
    return a == b


def _same_arrays(a: list, b: list) -> bool:
    """Elementwise equality of two arrays, on an explicit stack, so that
    nesting depth costs no Python frames.  A pair of arrays met again is
    taken as equal: it is still being compared, or it compared equal,
    since any difference ends the comparison.  So an array that contains
    itself equals itself."""
    seen = set()
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        pair = (id(a), id(b))
        if pair in seen:
            continue
        seen.add(pair)
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, list) and isinstance(y, list):
                stack.append((x, y))
            elif not _same_value(x, y):
                return False
    return True


def _render(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return _render_array(v)
    if v is TC or v is COV:
        return "[object]"
    return str(v)


def _render_array(v: list) -> str:
    """`[e1, e2, ...]`, on an explicit stack; an array already on the path
    from v down to it prints as `[...]`."""
    on_path = {id(v)}
    stack = [(v, iter(v), [])]
    while True:
        array, elems, parts = stack[-1]
        for x in elems:
            if not isinstance(x, list):
                parts.append(_render(x))
            elif id(x) in on_path:
                parts.append("[...]")
            else:
                on_path.add(id(x))
                stack.append((x, iter(x), []))
                break
        else:
            stack.pop()
            on_path.discard(id(array))
            text = "[" + ", ".join(parts) + "]"
            if not stack:
                return text
            stack[-1][2].append(text)


def _read_index(base, idx):
    if not isinstance(base, list):
        raise Trap("type")
    if not 0 <= idx < len(base):
        return None  # out-of-range reads yield undefined
    return base[idx]


def _store_index(base, idx, value):
    if not isinstance(base, list):
        raise Trap("type")
    if 0 <= idx < len(base):
        base[idx] = value
    elif idx == len(base):
        base.append(value)
    else:
        raise Trap("index")
    return value


def _var_stmt(comp: CCompiler, s: GenericValue) -> Callable:
    inits = []
    for dtor in s.args[0]:
        name, opt = dtor.args[0].args[0], dtor.args[1]
        # the binder is in scope (undefined) inside its own initializer
        comp.declare(name)
        inits.append((name, comp.expr(opt.args[0]) if opt.ctor == "SomeInit" else None))

    def var(st, env, inits=inits):
        st.fuel -= 1
        scope = env[-1]
        for name, code in inits:
            scope[name] = None
            if code is not None:
                scope[name] = code(st, env)

    return var


def _array(comp: CCompiler, e: GenericValue) -> Callable:
    def array(st, env, elems=[comp.expr(a) for a in e.args[0]]):
        st.fuel -= 1
        return [c(st, env) for c in elems]

    return array


class _Compiler(CCompiler):
    render = staticmethod(_render)
    truthy = staticmethod(_truthy)
    read_index = staticmethod(_read_index)
    store_index = staticmethod(_store_index)
    STMT = {**CCompiler.STMT, "VarStmt": _var_stmt}
    DECLARES = frozenset({"VarStmt"})
    EXPR = {**CCompiler.EXPR, "NumLit": literal, "UndefLit": nil_literal,
            "MemberE": member, "ArrayE": _array}
    BINOP = {"&&": and_value, "||": or_value,
             "==": equality(_same_value), "!=": equality(_same_value)}

    @staticmethod
    def items_of(block: GenericValue) -> tuple:
        return block.args[1].args[0]

    @staticmethod
    def routine_block(func: GenericValue) -> GenericValue:
        return func.args[2]

    def start(self, st):
        main = self.main()
        return call_user(st, main, [None] * len(main.args[1]))

    @staticmethod
    def params(func: GenericValue) -> list:
        return [p.args[0] for p in func.args[1]]

    body = CCompiler.block

    @staticmethod
    def unbound(name: str):
        if name == "TC":
            return TC
        raise Trap("undef")


def run(ast: GenericValue, fuel: int = 100_000,
        on_item: Callable | None = None,
        on_enter: Callable | None = None) -> RunResult:
    funcs = {f.args[0].args[0]: f for f in ast.args[0]}
    return _Compiler(funcs, on_item, on_enter).run(fuel)


def _stmts_below(s: GenericValue) -> tuple:
    """The statements directly below a statement, in its blocks."""
    c = s.ctor
    if c == "IfStmt":
        els = s.args[2]
        return (*_stmts(s.args[1]), *(_stmts(els.args[0]) if els.ctor == "SomeElse" else ()))
    if c == "WhileStmt" or c == "ForStmt" or c == "BlockStmt":
        return _stmts(s.args[-1])
    return ()


def _stmts(block: GenericValue) -> tuple:
    return block.args[1].args[0]


def item_walk(ast: GenericValue) -> list[GenericValue]:
    """All item-position nodes in the order coverage analysis numbers them."""
    return pre_order([s for func in ast.args[0] for s in _stmts(func.args[2])], _stmts_below)


register(
    LanguageDef(
        name="minijs",
        file_ext=".mjs",
        schema=SCHEMA,
        modularized=MOD,
        ips=IPS,
        injections=TABLE,
        ops=_Ops(),
        adapter=_Adapter(),
        parse=parse,
        pretty=pretty,
        decompose=decompose,
        recompose=recompose,
        tac=_Tac(C, BODY, _ident_term, ("NumLit", "BoolLit", "UndefLit"), "!",
                 ("&&", "||"), ASSIGN_IS_EXPR),
        run=run,
        item_walk=item_walk,
    )
)
