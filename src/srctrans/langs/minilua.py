"""MiniLua: a Lua subset frontend.

Chunks of statements with `local` declarations (parallel, binders not in
scope in their own initializers), parallel assignment statements, numeric
`for` with bounds evaluated once, `if`/`elseif`/`else`, `while`, `break`
(no `continue`), value-returning `and`/`or`, and `nil`.  Reads of unknown
globals yield nil; assignment to one creates it.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..fragments import (
    ASSIGN_L,
    BINDER_L,
    BLOCK_ITEM_L,
    BLOCK_L,
    IDENT_L,
    LHS_L,
    LOCAL_VAR_INIT_L,
    MULTI_DECL_IS_ITEM,
    RHS_L,
    assign,
    multi_decl,
    opt_init,
    single_decl,
)
from ..runtime import (
    BREAK,
    COMPARISONS,
    COV,
    EXPRESSIONS,
    TC,
    Compiler,
    RunResult,
    Trap,
    and_value,
    check_int,
    equality,
    literal,
    member,
    nil_literal,
    or_value,
    returned,
)
from ..schema import GV, GenericValue, modularize_schema, parse_schema_text, reader, walker
from ..terms import NodeKind, Term, build_list, gc_paused, list_kind
from ..traversal import Path
from .base import (
    AssignView,
    BodyCodec,
    ForNumView,
    IfView,
    LanguageDef,
    TacOps,
    block_cases,
    block_items,
    constructors,
    expect,
    generic_block,
    genericize,
    ident_assign_cases,
    item_viewer,
    optional,
    option_cases,
    register,
    shared_arms,
    some,
    wrap,
)
from .common import (
    PrettyPrinter,
    block_stmt,
    branch,
    expr_stmt,
    jump,
    return_stmt,
    while_stmt,
    TokenStream,
    expr_printer,
    expression_parser,
    lexer,
    parse_ident,
)

SCHEMA_TEXT = """
type Chunk = Chunk Block
type Block = Block [Stmt]
type Ident = Ident String
type Stmt = LocalStmt NameList OptExprList | AssignStmt LhsList ExprList | CallStmt Expr | IfStmt Expr Block ElseTail | WhileStmt Expr Block | ForStmt Ident Expr Expr OptStep Block | FuncStmt Ident NameList Block | ReturnStmt OptRet | BreakStmt | DoStmt Block
type ElseTail = ElseIf Expr Block ElseTail | Else Block | NoElse
type NameList = NameList [Ident]
type LhsList = LhsList [Expr]
type ExprList = ExprList [Expr]
type OptExprList = SomeExprs ExprList | NoExprs
type OptStep = SomeStep Expr | NoStep
type OptRet = SomeRet Expr | NoRet
type Expr = NumLit Int | BoolLit Bool | NilLit | VarE Ident | IndexE Expr Expr | MemberE Expr String | CallE Ident [Expr] | UnaryE String Expr | BinE String Expr Expr
"""

SCHEMA = parse_schema_text(SCHEMA_TEXT, name="MiniLua")
MOD = modularize_schema(SCHEMA)
S = MOD.sort_for
C = constructors(MOD)


# ---------------------------------------------------------------------------
# Parsing

_OPS = [
    "<=", ">=", "==", "~=",
    "+", "-", "*", "/", "%", "<", ">", "=",
    "(", ")", "[", "]", ",", ";", ".",
]
_KEYWORDS = frozenset(
    {"local", "function", "if", "then", "else", "elseif", "end", "while",
     "do", "for", "return", "break", "true", "false", "nil", "and", "or",
     "not"}
)
# binding power of each binary operator, for the parser and the printer
_PREC = {"or": 2, "and": 3, "<": 4, ">": 4, "<=": 4, ">=": 4, "~=": 4,
         "==": 4, "+": 6, "-": 6, "*": 7, "/": 7, "%": 7}
_BLOCK_ENDERS = ("end", "else", "elseif")


tokenize = lexer(_OPS, "--")


@gc_paused
def parse(text: str) -> GenericValue:
    ts = TokenStream(tokenize(text), _KEYWORDS)
    block = _parse_block(ts, top=True)
    ts.expect_eof()
    return GV("Chunk", (block,))


def _at_block_end(ts: TokenStream, top: bool) -> bool:
    if top:
        return ts.peek().kind == "eof"
    return any(ts.at_kw(k) for k in _BLOCK_ENDERS)


def _parse_block(ts: TokenStream, top: bool = False) -> GenericValue:
    stmts = []
    while not _at_block_end(ts, top):
        if ts.accept_op(";"):
            continue
        stmts.append(_parse_stmt(ts))
    return GV("Block", (tuple(stmts),))


def _parse_name_list(ts: TokenStream) -> GenericValue:
    return GV("NameList", (tuple(ts.comma_list(parse_ident)),))


def _parse_expr_list(ts: TokenStream) -> GenericValue:
    return GV("ExprList", (tuple(ts.comma_list(_parse_expr)),))


def _parse_stmt(ts: TokenStream) -> GenericValue:
    if ts.accept_kw("local"):
        names = _parse_name_list(ts)
        if ts.accept_op("="):
            opt = GV("SomeExprs", (_parse_expr_list(ts),))
        else:
            opt = GV("NoExprs")
        return GV("LocalStmt", (names, opt))
    if ts.accept_kw("function"):
        name = parse_ident(ts)
        ts.expect_op("(")
        params = GV("NameList", (tuple(ts.comma_list(parse_ident, ")")),))
        body = ts.loop_body(_parse_block, in_loop=False)
        ts.expect_kw("end")
        return GV("FuncStmt", (name, params, body))
    if ts.accept_kw("if"):
        cond = _parse_expr(ts)
        ts.expect_kw("then")
        then = _parse_block(ts)
        return GV("IfStmt", (cond, then, _parse_else_tail(ts)))
    if ts.accept_kw("while"):
        cond = _parse_expr(ts)
        ts.expect_kw("do")
        body = ts.loop_body(_parse_block)
        ts.expect_kw("end")
        return GV("WhileStmt", (cond, body))
    if ts.accept_kw("for"):
        var = parse_ident(ts)
        ts.expect_op("=")
        low = _parse_expr(ts)
        ts.expect_op(",")
        high = _parse_expr(ts)
        step = GV("SomeStep", (_parse_expr(ts),)) if ts.accept_op(",") else GV("NoStep")
        ts.expect_kw("do")
        body = ts.loop_body(_parse_block)
        ts.expect_kw("end")
        return GV("ForStmt", (var, low, high, step, body))
    if ts.accept_kw("return"):
        if _at_block_end(ts, top=False) or ts.peek().kind == "eof" or ts.at_op(";"):
            return GV("ReturnStmt", (GV("NoRet"),))
        return GV("ReturnStmt", (GV("SomeRet", (_parse_expr(ts),)),))
    if ts.accept_jump("break"):
        return GV("BreakStmt")
    if ts.accept_kw("do"):
        body = _parse_block(ts)
        ts.expect_kw("end")
        return GV("DoStmt", (body,))
    # assignment or call statement
    first = _parse_expr(ts, postfix_only=True)
    if ts.at_op(",") or ts.at_op("="):
        targets = [first]
        while ts.accept_op(","):
            targets.append(_parse_expr(ts, postfix_only=True))
        for t in targets:
            if t.ctor not in ("VarE", "IndexE", "MemberE"):
                raise ts.error("assignment target must be a variable, index or member")
        ts.expect_op("=")
        return GV("AssignStmt", (GV("LhsList", (tuple(targets),)), _parse_expr_list(ts)))
    if first.ctor != "CallE":
        raise ts.error("expression statements must be calls")
    return GV("CallStmt", (first,))


def _parse_else_tail(ts: TokenStream) -> GenericValue:
    if ts.accept_kw("elseif"):
        cond = _parse_expr(ts)
        ts.expect_kw("then")
        block = _parse_block(ts)
        return GV("ElseIf", (cond, block, _parse_else_tail(ts)))
    if ts.accept_kw("else"):
        block = _parse_block(ts)
        ts.expect_kw("end")
        return GV("Else", (block,))
    ts.expect_kw("end")
    return GV("NoElse")


_parse_expr = expression_parser(_PREC, "not", "NumLit", _KEYWORDS, nil=("nil", "NilLit"))


# ---------------------------------------------------------------------------
# Pretty-printing

def _own_expr_str(e: GenericValue, ctx: int) -> str:
    c = e.ctor
    if c == "NilLit":
        return "nil"
    if c == "UnaryE":
        op = e.args[0]
        inner = _expr_str(e.args[1], 8)
        if op == "not":
            out = f"not {inner}"
        else:
            # avoid "--", which would start a comment
            out = f"-({inner})" if inner.startswith("-") else f"-{inner}"
        return f"({out})" if ctx > 8 else out
    raise ValueError(f"not a MiniLua expression: {c}")


_expr_str = expr_printer(_PREC, _own_expr_str)


def _name_list_str(nl: GenericValue) -> str:
    return ", ".join(n.args[0] for n in nl.args[0])


def _print_block(pp: PrettyPrinter, block: GenericValue) -> None:
    pp.push()
    for s in block.args[0]:
        _print_stmt(pp, s)
    pp.pop()


def _print_stmt(pp: PrettyPrinter, s: GenericValue) -> None:
    c = s.ctor
    if c == "LocalStmt":
        names, opt = s.args
        if opt.ctor == "SomeExprs":
            exprs = ", ".join(_expr_str(e) for e in opt.args[0].args[0])
            pp.line(f"local {_name_list_str(names)} = {exprs}")
        else:
            pp.line(f"local {_name_list_str(names)}")
    elif c == "AssignStmt":
        targets = ", ".join(_expr_str(t) for t in s.args[0].args[0])
        sources = ", ".join(_expr_str(e) for e in s.args[1].args[0])
        pp.line(f"{targets} = {sources}")
    elif c == "CallStmt":
        pp.line(_expr_str(s.args[0]))
    elif c == "IfStmt":
        cond, then, tail = s.args
        pp.line(f"if {_expr_str(cond)} then")
        _print_block(pp, then)
        while tail.ctor == "ElseIf":
            pp.line(f"elseif {_expr_str(tail.args[0])} then")
            _print_block(pp, tail.args[1])
            tail = tail.args[2]
        if tail.ctor == "Else":
            pp.line("else")
            _print_block(pp, tail.args[0])
        pp.line("end")
    elif c == "WhileStmt":
        pp.line(f"while {_expr_str(s.args[0])} do")
        _print_block(pp, s.args[1])
        pp.line("end")
    elif c == "ForStmt":
        var, low, high, step, body = s.args
        head = f"for {var.args[0]} = {_expr_str(low)}, {_expr_str(high)}"
        if step.ctor == "SomeStep":
            head += f", {_expr_str(step.args[0])}"
        pp.line(head + " do")
        _print_block(pp, body)
        pp.line("end")
    elif c == "FuncStmt":
        name, params, body = s.args
        pp.line(f"function {name.args[0]}({_name_list_str(params)})")
        _print_block(pp, body)
        pp.line("end")
    elif c == "ReturnStmt":
        opt = s.args[0]
        if opt.ctor == "SomeRet":
            pp.line(f"return {_expr_str(opt.args[0])}")
        else:
            pp.line("return")
    elif c == "BreakStmt":
        pp.line("break")
    elif c == "DoStmt":
        pp.line("do")
        _print_block(pp, s.args[0])
        pp.line("end")
    else:
        raise ValueError(f"not a MiniLua statement: {c}")


@gc_paused
def pretty(ast: GenericValue) -> str:
    pp = PrettyPrinter()
    for s in ast.args[0].args[0]:
        _print_stmt(pp, s)
    return pp.render()


# ---------------------------------------------------------------------------
# Genericized signature and injections

IDENT_IS_MINILUA = NodeKind("IdentIsMiniLuaIdent", (), (IDENT_L,), S("Ident"))
ASSIGN_IS_STMT = NodeKind("AssignIsMiniLuaStmt", (), (ASSIGN_L,), S("Stmt"))
LHSLIST_IS_LHS = NodeKind("MiniLuaLhsListIsLhs", (), (S("LhsList"),), LHS_L)
EXPRLIST_IS_RHS = NodeKind("MiniLuaExprListIsRhs", (), (S("ExprList"),), RHS_L)
NAMELIST_IS_BINDER = NodeKind(
    "MiniLuaNameListIsBinder", (), (S("NameList"),), BINDER_L
)
EXPRLIST_IS_INIT = NodeKind(
    "MiniLuaExprListIsLocalVarInit", (), (S("ExprList"),), LOCAL_VAR_INIT_L
)
STMT_IS_ITEM = NodeKind("MiniLuaStmtIsBlockItem", (), (S("Stmt"),), BLOCK_ITEM_L)
BLOCK_IS_MINILUA = NodeKind("GenericBlockIsMiniLuaBlock", (), (BLOCK_L,), S("Block"))

_ident_term, _TRANS, _UNTRANS = ident_assign_cases(
    IDENT_IS_MINILUA, C.Ident, ASSIGN_IS_STMT, LHSLIST_IS_LHS, EXPRLIST_IS_RHS,
    C.AssignStmt,
    target="a MiniLua target list", source="a MiniLua expression list",
)


def _tr_local(v: GenericValue, walk) -> Term:
    names, opt = v.args
    names, opt = walk(names), walk(opt)
    return multi_decl([single_decl(wrap(NAMELIST_IS_BINDER, names), opt)])


_OPTION_TRANS, _un_option = option_cases(
    C.SomeExprs, C.NoExprs, EXPRLIST_IS_INIT, "a MiniLua expression list"
)


def _un_decl(attrs: Term, singles_t: Term, read) -> GenericValue:
    expect(attrs.kind.name == "EmptyCommonAttrs", "MiniLua declarations carry no attributes")
    singles = singles_t.children
    # One parallel binder group per local statement.
    expect(len(singles) == 1, "MiniLua declarations hold a single binder group")
    _, binder, opt = singles[0].children
    expect(binder.kind == NAMELIST_IS_BINDER, "MiniLua binders are name lists")
    names = read(binder.children[0])
    return GV("LocalStmt", (names, _un_option(opt, read)))


BODY = BodyCodec(BLOCK_IS_MINILUA, STMT_IS_ITEM)
_BLOCK_TRANS, _BLOCK_UNTRANS = block_cases(
    BODY, C.Block, C.LocalStmt, _tr_local, _un_decl
)
_CASES = {**_TRANS, **_BLOCK_TRANS, **_OPTION_TRANS}
IPS, TABLE = genericize(
    MOD, _CASES,
    [
        IDENT_IS_MINILUA, ASSIGN_IS_STMT, LHSLIST_IS_LHS, EXPRLIST_IS_RHS,
        NAMELIST_IS_BINDER, EXPRLIST_IS_INIT, STMT_IS_ITEM, BLOCK_IS_MINILUA,
        MULTI_DECL_IS_ITEM,
    ],
)
TABLE.compose(ASSIGN_L, S("Stmt"), BLOCK_ITEM_L)
decompose = gc_paused(walker(MOD, _CASES))
recompose = gc_paused(reader(MOD, {**_UNTRANS, **_BLOCK_UNTRANS}))


# ---------------------------------------------------------------------------
# Syntactic operations

class _Ops:
    # `local x = x` reads the OUTER x; hoisting the initializer below the
    # declaration would change which x it denotes.
    binder_in_scope_in_init = False

    def var_init_to_rhs(self, common_attrs: Term, decl_attrs: Term, init: Term) -> Term:
        expect(init.kind == EXPRLIST_IS_INIT, "not a MiniLua initializer")
        return wrap(EXPRLIST_IS_RHS, init.children[0])

    def var_decl_binder_to_lhs(self, binder: Term) -> Term:
        expect(binder.kind == NAMELIST_IS_BINDER, "not a MiniLua binder")
        targets = [
            C.VarE(name_t)
            for name_t in binder.children[0].children[0].children
        ]
        return wrap(LHSLIST_IS_LHS, C.LhsList(build_list(S("Expr"), targets)))


# ---------------------------------------------------------------------------
# Structural adapter

def _tail_to_block(tail: Term) -> tuple[Optional[Term], str]:
    name = tail.kind.name
    if name == "MiniLua.NoElse":
        return None, "none"
    if name == "MiniLua.Else":
        return BODY.open(tail.children[0])[0], "else"
    # elseif: view the rest of the chain as a one-statement else block
    cond, block, rest = tail.children
    synthetic = C.IfStmt(cond, block, rest)
    return generic_block([BODY.item(synthetic)]), "elseif"


def _block_to_tail(block: Optional[Term], how: str) -> Term:
    if block is None:
        return C.NoElse()
    if how == "elseif":
        items = block_items(block)
        if len(items) == 1 and items[0].kind == STMT_IS_ITEM:
            stmt = items[0].children[0]
            if stmt.kind.name == "MiniLua.IfStmt":
                return C.ElseIf(*stmt.children)
    return C.Else(BODY.close(block, None))


def _assign_item(targets, sources) -> Term:
    a = assign(
        wrap(LHSLIST_IS_LHS, C.LhsList(build_list(S("Expr"), targets))),
        wrap(EXPRLIST_IS_RHS, C.ExprList(build_list(S("Expr"), sources))),
    )
    return TABLE.inj(a, BLOCK_ITEM_L)


def _assign_view(stmt: Term) -> AssignView:
    lhs_w, _, rhs_w = stmt.children[0].children
    targets = lhs_w.children[0].children[0].children
    sources = rhs_w.children[0].children[0].children
    return AssignView(targets, sources, _assign_item)


def _if_view(stmt: Term) -> IfView:
    cond, then, tail = stmt.children
    then_g = BODY.open(then)[0]
    else_g, how = _tail_to_block(tail)

    def rebuild(c: Term, tb: Term, eb: Optional[Term]) -> Term:
        return BODY.item(C.IfStmt(c, BODY.close(tb, None), _block_to_tail(eb, how)))

    return IfView(cond, then_g, else_g, rebuild)


_step = optional(C.SomeStep, C.NoStep)


def _for_view(stmt: Term) -> ForNumView:
    var, low, high, step, body = stmt.children
    body_g = BODY.open(body)[0]

    def rebuild(lo, hi, st, b):
        return BODY.item(C.ForStmt(var, lo, hi, _step(st), BODY.close(b, None)))

    return ForNumView(low, high, some(step), body_g, rebuild)


# The sorts of an expression and of a list of them: no function statement
# occurs under either, so the body scan does not descend into them.
_EXPR = C.VarE.kind.produced
_EXPRS = list_kind(_EXPR).produced


class _Adapter:
    item_view = staticmethod(item_viewer(BODY, {
        **shared_arms(BODY, C, optional(C.SomeRet, C.NoRet), C.DoStmt, C.CallStmt),
        ASSIGN_IS_STMT: _assign_view,
        C.IfStmt.kind: _if_view,
        C.ForStmt.kind: _for_view,
    }))

    def body_paths(self, root: Term) -> list[Path]:
        # The chunk body comes first, then every function body in
        # document order.  The scan keeps a stack of child iterators, one
        # per node on `path`, so deep nesting does not recurse.
        paths: list[Path] = [(0, 0)]
        path: list[int] = []
        todo = [enumerate(root.children)]
        while todo:
            for i, child in todo[-1]:
                if child.kind.name == "MiniLua.FuncStmt":
                    paths.append((*path, i, 2, 0))
                sort = child.kind.produced
                if child.children and sort is not _EXPR and sort is not _EXPRS:
                    path.append(i)
                    todo.append(enumerate(child.children))
                    break
            else:
                todo.pop()
                if path:
                    path.pop()
        return paths

    def make_cov_marker(self, index: int) -> Term:
        cell = C.IndexE(
            C.MemberE("cov", C.VarE(_ident_term("TC"))),
            C.NumLit(index),
        )
        return _assign_item([cell], [C.BoolLit(True)])


# ---------------------------------------------------------------------------
# Three-address hooks

class _Tac(TacOps):
    def make_decl_item(self, name: str, init: Optional[Term]) -> Term:
        names = C.NameList(build_list(S("Ident"), [_ident_term(name)]))
        if init is not None:
            init = wrap(EXPRLIST_IS_INIT, C.ExprList(build_list(S("Expr"), [init])))
        single = single_decl(wrap(NAMELIST_IS_BINDER, names), opt_init(init))
        return wrap(MULTI_DECL_IS_ITEM, multi_decl([single]))

    def make_assign_item(self, target: Term, source: Term) -> Term:
        return _assign_item([target], [source])

    def init_exprs(self, init: Term) -> tuple:
        expect(init.kind == EXPRLIST_IS_INIT, "not a MiniLua initializer")
        exprs = init.children[0].children[0].children

        def rebuild(new_exprs: list) -> Term:
            return wrap(
                EXPRLIST_IS_INIT,
                C.ExprList(build_list(S("Expr"), new_exprs)),
            )

        return exprs, rebuild


# ---------------------------------------------------------------------------
# Evaluation

def _truthy(v) -> bool:
    return v is not None and v is not False


def _same_value(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if a is TC or b is TC or a is COV or b is COV:
        return a is b
    return a == b


def _render(v) -> str:
    if v is None:
        return "nil"
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is TC or v is COV:
        return "table"
    return str(v)


def _no_index(base, idx, value=None):
    raise Trap("type")


def _local_stmt(comp: "_Compiler", s: GenericValue) -> Callable:
    names, opt = s.args
    names = [n.args[0] for n in names.args[0]]
    values = [comp.expr(e) for e in opt.args[0].args[0]] if opt.ctor == "SomeExprs" else []
    for name in names:
        comp.declare(name)
    if len(names) == len(values) == 1:
        def local_one(st, env, name=names[0], code=values[0]):
            st.fuel -= 1
            env[-1][name] = code(st, env)

        return local_one

    def local(st, env, names=names, values=values):
        st.fuel -= 1
        vs = [c(st, env) for c in values]
        scope = env[-1]
        for i, name in enumerate(names):
            scope[name] = vs[i] if i < len(vs) else None

    return local


def _assign_stmt(comp: "_Compiler", s: GenericValue) -> Callable:
    """Parallel assignment: every value first, then the targets in order."""
    values = [comp.expr(e) for e in s.args[1].args[0]]
    targets = [comp.target(t) for t in s.args[0].args[0]]
    if len(targets) == len(values) == 1:
        def assign_one(st, env, store=targets[0], code=values[0]):
            st.fuel -= 1
            store(st, env, code(st, env))

        return assign_one

    def assign(st, env, values=values, targets=targets):
        st.fuel -= 1
        vs = [c(st, env) for c in values]
        for i, store in enumerate(targets):
            store(st, env, vs[i] if i < len(vs) else None)

    return assign


def _if_stmt(comp: "_Compiler", s: GenericValue) -> Callable:
    cond, then, tail = s.args
    return branch(comp.test(cond), comp.block(then), _else_tail(comp, tail))


def _else_tail(comp: "_Compiler", tail: GenericValue) -> Optional[Callable]:
    if tail.ctor == "Else":
        return comp.block(tail.args[0])
    if tail.ctor != "ElseIf":
        return None
    # elseif behaves like an item guarding the rest of the chain
    cond, block, rest = tail.args
    return comp.hooked(tail, branch(comp.test(cond), comp.block(block),
                                    _else_tail(comp, rest)))


def _for_num(comp: "_Compiler", s: GenericValue) -> Callable:
    """Numeric for: bounds and step evaluated once; the loop variable
    lives in a scope of its own around each run of the body."""
    var, low, high, step, body = s.args
    name = var.args[0]
    low_c = comp.expr(low)
    high_c = comp.expr(high)
    step_c = comp.expr(step.args[0]) if step.ctor == "SomeStep" else None
    comp.scopes.append(frozenset((name,)))
    body_c = comp.block(body)
    comp.scopes.pop()

    def for_(st, env, name=name, low_c=low_c, high_c=high_c, step_c=step_c, body_c=body_c):
        st.fuel -= 1
        i = low_c(st, env)
        hi = high_c(st, env)
        by = 1 if step_c is None else step_c(st, env)
        for v in (i, hi, by):
            check_int(v)
        if by == 0:
            raise Trap("forstep")
        while (i <= hi) if by > 0 else (i >= hi):
            st.fuel -= 1
            if st.fuel < 0:
                raise Trap("fuel")
            signal = body_c(st, env + [{name: i}])
            if signal is not None:
                return None if signal is BREAK else signal
            i += by

    return for_


class _Compiler(Compiler):
    render = staticmethod(_render)
    truthy = staticmethod(_truthy)
    read_index = staticmethod(_no_index)
    store_index = staticmethod(_no_index)
    NOT = "not"
    STMT = {
        "LocalStmt": _local_stmt,
        "AssignStmt": _assign_stmt,
        "CallStmt": expr_stmt,
        "IfStmt": _if_stmt,
        "WhileStmt": while_stmt,
        "ForStmt": _for_num,
        "FuncStmt": lambda comp, s: jump(None),  # collected before the run
        "ReturnStmt": return_stmt,
        "BreakStmt": lambda comp, s: jump(BREAK),
        "DoStmt": block_stmt,
    }
    EXPR = {**EXPRESSIONS, "NumLit": literal, "BoolLit": literal,
            "NilLit": nil_literal, "MemberE": member}
    BINOP = {"and": and_value, "or": or_value,
             "==": equality(_same_value), "~=": equality(_same_value)}
    BOOL_OPS = COMPARISONS | {"==", "~="}

    def __init__(self, chunk: GenericValue, *args):
        # a name defined twice calls its last definition
        funcs = {f.args[0].args[0]: f for f in _funcs(chunk.args[0], [])}
        super().__init__(funcs, *args)
        self.chunk = chunk

    @staticmethod
    def items_of(block: GenericValue) -> tuple:
        return block.args[0]

    @staticmethod
    def routine_block(func: GenericValue) -> GenericValue:
        return func.args[2]

    body = Compiler.block

    def start(self, st):
        if self.on_enter:
            self.on_enter(self.chunk)
        self.scopes = [frozenset()]
        signal = self.block(self.chunk.args[0], new_scope=False)(st, [{}])
        return None if signal is None else returned(signal)

    @staticmethod
    def params(func: GenericValue) -> list:
        return [n.args[0] for n in func.args[1].args[0]]

    @staticmethod
    def bind(params: list, args: list) -> dict:
        # extra arguments are dropped, missing ones become nil
        return {p: (args[i] if i < len(args) else None) for i, p in enumerate(params)}

    @staticmethod
    def unbound(name: str):
        if name == "TC":
            return TC
        return None  # unknown globals read as nil


def _funcs(block: GenericValue, out: list) -> list:
    """out, then each function statement under block in document order:
    the order of the adapter's function bodies."""
    for s in block.args[0]:
        c = s.ctor
        if c == "FuncStmt":
            out.append(s)
            _funcs(s.args[2], out)
        elif c == "IfStmt":
            _funcs(s.args[1], out)
            tail = s.args[2]
            while tail.ctor == "ElseIf":
                _funcs(tail.args[1], out)
                tail = tail.args[2]
            if tail.ctor == "Else":
                _funcs(tail.args[0], out)
        elif c == "WhileStmt":
            _funcs(s.args[1], out)
        elif c == "ForStmt":
            _funcs(s.args[4], out)
        elif c == "DoStmt":
            _funcs(s.args[0], out)
    return out


def run(ast: GenericValue, fuel: int = 100_000,
        on_item: Optional[Callable] = None,
        on_enter: Optional[Callable] = None) -> RunResult:
    return _Compiler(ast, on_item, on_enter).run(fuel)


def item_walk(ast: GenericValue) -> list[GenericValue]:
    """All item-position nodes in the order coverage analysis numbers them.

    The chunk body is walked first, then each function body in document
    order, matching the adapter's body enumeration.
    """
    out: list[GenericValue] = []

    def walk_block(block: GenericValue) -> None:
        for s in block.args[0]:
            out.append(s)
            walk_stmt(s)

    def walk_tail(tail: GenericValue) -> None:
        if tail.ctor == "ElseIf":
            out.append(tail)
            walk_block(tail.args[1])
            walk_tail(tail.args[2])
        elif tail.ctor == "Else":
            walk_block(tail.args[0])

    def walk_stmt(s: GenericValue) -> None:
        c = s.ctor
        if c == "IfStmt":
            walk_block(s.args[1])
            walk_tail(s.args[2])
        elif c == "WhileStmt":
            walk_block(s.args[1])
        elif c == "ForStmt":
            walk_block(s.args[4])
        elif c == "DoStmt":
            walk_block(s.args[0])

    walk_block(ast.args[0])
    for func in _funcs(ast.args[0], []):
        walk_block(func.args[2])
    return out


register(
    LanguageDef(
        name="minilua",
        file_ext=".mlua",
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
        tac=_Tac(C, BODY, _ident_term, ("NumLit", "BoolLit", "NilLit"), "not",
                 ("and", "or")),
        run=run,
        item_walk=item_walk,
    )
)
