"""MiniLua: a Lua subset frontend.

Chunks of statements with `local` declarations (parallel, binders not in
scope in their own initializers), parallel assignment statements, numeric
`for` with bounds evaluated once, `if`/`elseif`/`else`, `while`, `break`
(no `continue`), value-returning `and`/`or`, and `nil`.  Reads of unknown
globals yield nil; assignment to one creates it.
"""

from __future__ import annotations

from collections.abc import Callable

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
    local_assignment,
    member,
    nil_literal,
    or_value,
    returned,
    scope,
)
from ..schema import GV, Case, GenericValue, modularize_schema, parse_schema_text, reader, walker
from ..terms import NodeKind, Term, build_list, gc_paused
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
    pre_order,
    register,
    shared_arms,
    some,
)
from .common import (
    DEDENT,
    INDENT,
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
    render,
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
_BLOCK_ENDERS = frozenset({"end", "else", "elseif"})


tokenize, scan = lexer(_OPS, "--")


@gc_paused
def parse(text: str) -> GenericValue:
    ts = scan(text, _KEYWORDS)
    block = _parse_block(ts, top=True)
    return GV("Chunk", (block,))


def _at_block_end(ts: TokenStream, top: bool) -> bool:
    tok = ts.tokens[ts.pos]
    return not tok if top else tok in _BLOCK_ENDERS


def _parse_block(ts: TokenStream, top: bool = False) -> GenericValue:
    stmts = []
    while not _at_block_end(ts, top):
        if ts.accept(";"):
            continue
        stmts.append(_parse_stmt(ts))
    return GV("Block", (tuple(stmts),))


def _parse_name_list(ts: TokenStream) -> GenericValue:
    return GV("NameList", (tuple(ts.comma_list(parse_ident)),))


def _parse_expr_list(ts: TokenStream) -> GenericValue:
    return GV("ExprList", (tuple(ts.comma_list(_parse_expr)),))


def _parse_stmt(ts: TokenStream) -> GenericValue:
    if ts.tokens[ts.pos] in _STMT_KWS:
        if ts.accept("local"):
            names = _parse_name_list(ts)
            if ts.accept("="):
                opt = GV("SomeExprs", (_parse_expr_list(ts),))
            else:
                opt = GV("NoExprs")
            return GV("LocalStmt", (names, opt))
        if ts.accept("function"):
            name = parse_ident(ts)
            ts.expect("(")
            params = GV("NameList", (tuple(ts.comma_list(parse_ident, ")")),))
            body = ts.loop_body(_parse_block, in_loop=False)
            ts.expect("end")
            return GV("FuncStmt", (name, params, body))
        if ts.accept("if"):
            cond = _parse_expr(ts)
            ts.expect("then")
            then = _parse_block(ts)
            return GV("IfStmt", (cond, then, _parse_else_tail(ts)))
        if ts.accept("while"):
            cond = _parse_expr(ts)
            ts.expect("do")
            body = ts.loop_body(_parse_block)
            ts.expect("end")
            return GV("WhileStmt", (cond, body))
        if ts.accept("for"):
            var = parse_ident(ts)
            ts.expect("=")
            low = _parse_expr(ts)
            ts.expect(",")
            high = _parse_expr(ts)
            step = GV("SomeStep", (_parse_expr(ts),)) if ts.accept(",") else GV("NoStep")
            ts.expect("do")
            body = ts.loop_body(_parse_block)
            ts.expect("end")
            return GV("ForStmt", (var, low, high, step, body))
        if ts.accept("return"):
            if _at_block_end(ts, top=False) or not ts.peek() or ts.at(";"):
                return GV("ReturnStmt", (GV("NoRet"),))
            return GV("ReturnStmt", (GV("SomeRet", (_parse_expr(ts),)),))
        if ts.accept_jump("break"):
            return GV("BreakStmt")
        if ts.accept("do"):
            body = _parse_block(ts)
            ts.expect("end")
            return GV("DoStmt", (body,))
    # assignment or call statement
    first = _parse_expr(ts, postfix_only=True)
    if ts.at(",") or ts.at("="):
        targets = [first]
        while ts.accept(","):
            targets.append(_parse_expr(ts, postfix_only=True))
        for t in targets:
            if t.ctor not in ("VarE", "IndexE", "MemberE"):
                raise ts.error("assignment target must be a variable, index or member")
        ts.expect("=")
        return GV("AssignStmt", (GV("LhsList", (tuple(targets),)), _parse_expr_list(ts)))
    if first.ctor != "CallE":
        raise ts.error("expression statements must be calls")
    return GV("CallStmt", (first,))


# The keywords that start a statement of _parse_stmt.
_STMT_KWS = frozenset({"local", "function", "if", "while", "for", "return", "break", "do"})


def _parse_else_tail(ts: TokenStream) -> GenericValue:
    if ts.accept("elseif"):
        cond = _parse_expr(ts)
        ts.expect("then")
        block = _parse_block(ts)
        return GV("ElseIf", (cond, block, _parse_else_tail(ts)))
    if ts.accept("else"):
        block = _parse_block(ts)
        ts.expect("end")
        return GV("Else", (block,))
    ts.expect("end")
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


def _indented(block: GenericValue) -> tuple:
    return (INDENT, *block.args[0], DEDENT)


def _layout(s: GenericValue):
    c = s.ctor
    if c == "LocalStmt":
        names, opt = s.args
        if opt.ctor == "SomeExprs":
            exprs = ", ".join(_expr_str(e) for e in opt.args[0].args[0])
            return (f"local {_name_list_str(names)} = {exprs}",)
        return (f"local {_name_list_str(names)}",)
    if c == "AssignStmt":
        targets = ", ".join(_expr_str(t) for t in s.args[0].args[0])
        sources = ", ".join(_expr_str(e) for e in s.args[1].args[0])
        return (f"{targets} = {sources}",)
    if c == "CallStmt":
        return (_expr_str(s.args[0]),)
    if c == "IfStmt":
        cond, then, tail = s.args
        parts = [f"if {_expr_str(cond)} then", *_indented(then)]
        while tail.ctor == "ElseIf":
            parts += (f"elseif {_expr_str(tail.args[0])} then", *_indented(tail.args[1]))
            tail = tail.args[2]
        if tail.ctor == "Else":
            parts += ("else", *_indented(tail.args[0]))
        parts.append("end")
        return parts
    if c == "WhileStmt":
        return (f"while {_expr_str(s.args[0])} do", *_indented(s.args[1]), "end")
    if c == "ForStmt":
        var, low, high, step, body = s.args
        head = f"for {var.args[0]} = {_expr_str(low)}, {_expr_str(high)}"
        if step.ctor == "SomeStep":
            head += f", {_expr_str(step.args[0])}"
        return (head + " do", *_indented(body), "end")
    if c == "FuncStmt":
        name, params, body = s.args
        return (f"function {name.args[0]}({_name_list_str(params)})", *_indented(body), "end")
    if c == "ReturnStmt":
        opt = s.args[0]
        return (f"return {_expr_str(opt.args[0])}" if opt.ctor == "SomeRet" else "return",)
    if c == "BreakStmt":
        return ("break",)
    if c == "DoStmt":
        return ("do", *_indented(s.args[0]), "end")
    raise ValueError(f"not a MiniLua statement: {c}")


@gc_paused
def pretty(ast: GenericValue) -> str:
    return render(ast.args[0].args[0], _layout)


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
    return multi_decl([single_decl(NAMELIST_IS_BINDER.build(names), opt)])


_OPTION_TRANS, _un_option = option_cases(
    C.SomeExprs, C.NoExprs, EXPRLIST_IS_INIT, "a MiniLua expression list"
)


def _un_decl(multi: Term) -> tuple:
    attrs, singles_t = multi.children
    expect(attrs.kind.name == "EmptyCommonAttrs", "MiniLua declarations carry no attributes")
    singles = singles_t.children
    # One parallel binder group per local statement.
    expect(len(singles) == 1, "MiniLua declarations hold a single binder group")
    _, binder, opt = singles[0].children
    expect(binder.kind == NAMELIST_IS_BINDER, "MiniLua binders are name lists")
    return binder.children[0], (_un_option, opt)


BODY = BodyCodec(BLOCK_IS_MINILUA, STMT_IS_ITEM)
_BLOCK_TRANS, _BLOCK_UNTRANS = block_cases(
    BODY, C.Block, C.LocalStmt, _tr_local,
    Case(_un_decl, lambda multi, v: GV("LocalStmt", tuple(v))),
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
        return EXPRLIST_IS_RHS.build(init.children[0])

    def var_decl_binder_to_lhs(self, binder: Term) -> Term:
        expect(binder.kind == NAMELIST_IS_BINDER, "not a MiniLua binder")
        targets = [
            C.VarE(name_t)
            for name_t in binder.children[0].children[0].children
        ]
        return LHSLIST_IS_LHS.build(C.LhsList(build_list(S("Expr"), targets)))


# ---------------------------------------------------------------------------
# Structural adapter

def _tail_to_block(tail: Term) -> tuple[Term | None, str]:
    name = tail.kind.name
    if name == "MiniLua.NoElse":
        return None, "none"
    if name == "MiniLua.Else":
        return BODY.open(tail.children[0])[0], "else"
    # elseif: view the rest of the chain as a one-statement else block
    cond, block, rest = tail.children
    synthetic = C.IfStmt(cond, block, rest)
    return generic_block([BODY.item(synthetic)]), "elseif"


def _block_to_tail(block: Term | None, how: str) -> Term:
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
        LHSLIST_IS_LHS.build(C.LhsList(build_list(S("Expr"), targets))),
        EXPRLIST_IS_RHS.build(C.ExprList(build_list(S("Expr"), sources))),
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

    def rebuild(c: Term, tb: Term, eb: Term | None) -> Term:
        return BODY.item(C.IfStmt(c, BODY.close(tb, None), _block_to_tail(eb, how)))

    return IfView(cond, then_g, else_g, rebuild)


_step = optional(C.SomeStep, C.NoStep)


def _for_view(stmt: Term) -> ForNumView:
    var, low, high, step, body = stmt.children
    body_g = BODY.open(body)[0]

    def rebuild(lo, hi, st, b):
        return BODY.item(C.ForStmt(var, lo, hi, _step(st), BODY.close(b, None)))

    return ForNumView(low, high, some(step), body_g, rebuild)


_FUNC = C.FuncStmt.kind


# The parts of `TC.cov[i] = true` that do not depend on i, built once.
_COV = C.MemberE("cov", C.VarE(_ident_term("TC")))
_TRUE = EXPRLIST_IS_RHS.build(C.ExprList(build_list(S("Expr"), [C.BoolLit(True)])))


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
        # per node on `path`, so deep nesting does not recurse, and
        # descends only into the sorts that can hold a function
        # statement, as hoist's walk skips those that cannot hold a block.
        holders = IPS.sorts_containing(_FUNC.produced)
        paths: list[Path] = [(0, 0)]
        path: list[int] = []
        todo = [enumerate(root.children)]
        while todo:
            for i, child in todo[-1]:
                kind = child.kind
                if kind is _FUNC:
                    paths.append((*path, i, 2, 0))
                if kind.produced in holders and child.children:
                    path.append(i)
                    todo.append(enumerate(child.children))
                    break
            else:
                todo.pop()
                if path:
                    path.pop()
        return paths

    def make_cov_marker(self, index: int) -> Term:
        cell = C.IndexE(_COV, C.NumLit(index))
        lhs = LHSLIST_IS_LHS.build(C.LhsList(build_list(S("Expr"), [cell])))
        return TABLE.inj(assign(lhs, _TRUE), BLOCK_ITEM_L)


# ---------------------------------------------------------------------------
# Three-address hooks

class _Tac(TacOps):
    def make_decl_item(self, name: str, init: Term | None) -> Term:
        names = C.NameList(build_list(S("Ident"), [_ident_term(name)]))
        if init is not None:
            init = EXPRLIST_IS_INIT.build(C.ExprList(build_list(S("Expr"), [init])))
        single = single_decl(NAMELIST_IS_BINDER.build(names), opt_init(init))
        return MULTI_DECL_IS_ITEM.build(multi_decl([single]))

    def make_assign_item(self, target: Term, source: Term) -> Term:
        return _assign_item([target], [source])

    def init_exprs(self, init: Term) -> tuple:
        expect(init.kind == EXPRLIST_IS_INIT, "not a MiniLua initializer")
        exprs = init.children[0].children[0].children

        def rebuild(new_exprs: list) -> Term:
            return EXPRLIST_IS_INIT.build(C.ExprList(build_list(S("Expr"), new_exprs)))

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
    lhs = s.args[0].args[0]
    if len(lhs) == len(values) == 1 and lhs[0].ctor == "VarE":
        name = lhs[0].args[0].args[0]
        depth = comp.resolve(name)
        if depth is not None:
            return local_assignment(depth, name, values[0], 1)
    targets = [comp.target(t) for t in lhs]
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


def _else_tail(comp: "_Compiler", tail: GenericValue) -> Callable | None:
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
    comp.scopes.append(scope((name,)))
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
    DECLARES = frozenset({"LocalStmt"})

    def __init__(self, chunk: GenericValue, *args):
        # a name defined twice calls its last definition
        funcs = {f.args[0].args[0]: f for f in _funcs(chunk.args[0])}
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
        self.scopes = [scope()]
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


def _items_below(s: GenericValue) -> tuple:
    """The item-position nodes directly below a statement or an elseif
    arm: the statements of its blocks, and an elseif arm after it."""
    c = s.ctor
    if c == "IfStmt" or c == "ElseIf":
        tail = s.args[2]
        if tail.ctor == "ElseIf":
            return (*s.args[1].args[0], tail)
        return (*s.args[1].args[0], *(tail.args[0].args[0] if tail.ctor == "Else" else ()))
    if c == "WhileStmt" or c == "ForStmt" or c == "DoStmt":
        return s.args[-1].args[0]
    return ()


def _funcs(block: GenericValue) -> list:
    """Each function statement under block, nested ones included, in
    document order: the order of the adapter's function bodies."""
    return [s for s in pre_order(block.args[0], _below_or_in_func) if s.ctor == "FuncStmt"]


def _below_or_in_func(s: GenericValue) -> tuple:
    return s.args[2].args[0] if s.ctor == "FuncStmt" else _items_below(s)


def run(ast: GenericValue, fuel: int = 100_000,
        on_item: Callable | None = None,
        on_enter: Callable | None = None) -> RunResult:
    return _Compiler(ast, on_item, on_enter).run(fuel)


def item_walk(ast: GenericValue) -> list[GenericValue]:
    """All item-position nodes in the order coverage analysis numbers them.

    The chunk body is walked first, then each function body in document
    order, matching the adapter's body enumeration.
    """
    bodies = [ast.args[0], *(func.args[2] for func in _funcs(ast.args[0]))]
    return pre_order([s for body in bodies for s in body.args[0]], _items_below)


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
