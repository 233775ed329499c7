"""MiniC: a statically typed C subset frontend.

Grammar highlights: top-level functions only, `int`/`bool`/`int[]` types,
multi-declarator declarations with optional initializers (including braced
array initializers), C statements and expressions with short-circuit
`&&`/`||`, assignment as an expression.  Declarations are block items, not
statements, so `if (c) int x = 1;` is a parse error.
"""

from __future__ import annotations

from collections.abc import Callable

from ..fragments import (
    ASSIGN_L,
    BLOCK_ITEM_L,
    BLOCK_L,
    COMMON_ATTRS_L,
    IDENT_IS_BINDER,
    IDENT_L,
    LHS_L,
    LOCAL_VAR_INIT_L,
    MULTI_DECL_IS_ITEM,
    RHS_L,
    assign,
    ident_names,
    multi_decl,
)
from ..runtime import COV, RunResult, Trap, call_user, equality, literal
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
from ..terms import NodeKind, Term, gc_paused
from .base import (
    BodyCodec,
    LanguageDef,
    block_cases,
    block_items,
    c_item_view,
    constructors,
    declarator_cases,
    expect,
    func_body_paths,
    generic_block,
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
type FuncDef = FuncDef Type Ident [Param] Block
type Param = Param Type Ident
type Type = TInt | TBool | TIntArr
type Ident = Ident String
type Block = Block [BlockItem]
type BlockItem = StmtItem Stmt | DeclItem Decl
type Decl = Decl Type [Declarator]
type Declarator = Declarator Ident OptInit
type OptInit = SomeInit Init | NoInit
type Init = ExprInit Expr | ArrInit [Expr]
type Stmt = ExprStmt Expr | IfStmt Expr Stmt OptElse | WhileStmt Expr Stmt | ForStmt OptExpr OptExpr OptExpr Stmt | ReturnStmt OptExpr | BreakStmt | ContinueStmt | BlockStmt Block
type OptElse = SomeElse Stmt | NoElse
type OptExpr = SomeExpr Expr | NoExpr
type Expr = IntLit Int | BoolLit Bool | VarE Ident | IndexE Expr Expr | CallE Ident [Expr] | UnaryE String Expr | BinE String Expr Expr | AssignE Expr Expr
"""

SCHEMA = parse_schema_text(SCHEMA_TEXT, name="MiniC")
MOD = modularize_schema(SCHEMA)
S = MOD.sort_for
C = constructors(MOD)


# ---------------------------------------------------------------------------
# Parsing

_OPS = [
    "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
    "(", ")", "{", "}", "[", "]", ",", ";",
]
_KEYWORDS = frozenset(
    {"int", "bool", "if", "else", "while", "for", "return",
     "break", "continue", "true", "false"}
)
# the keywords that start a type, so a declaration
_TYPE_KWS = frozenset({"int", "bool"})

# binding power of each binary operator, for the parser and the printer
_PREC = {"||": 2, "&&": 3, "==": 4, "!=": 4, "<": 5, "<=": 5,
         ">": 5, ">=": 5, "+": 6, "-": 6, "*": 7, "/": 7, "%": 7}


tokenize, scan = lexer(_OPS, "//")


@gc_paused
def parse(text: str) -> GenericValue:
    ts = scan(text, _KEYWORDS)
    funcs = []
    while ts.peek():
        funcs.append(_parse_func(ts))
    return GV("Program", (tuple(funcs),))


def _at_type(ts: TokenStream) -> bool:
    return ts.tokens[ts.pos] in _TYPE_KWS


def _parse_type(ts: TokenStream) -> GenericValue:
    if ts.accept("bool"):
        return GV("TBool")
    ts.expect("int")
    if ts.at("[") and ts.tokens[ts.pos + 1] == "]":
        ts.pos += 2
        return GV("TIntArr")
    return GV("TInt")


def _parse_func(ts: TokenStream) -> GenericValue:
    ty = _parse_type(ts)
    name = parse_ident(ts)
    ts.expect("(")
    params = ts.comma_list(_parse_param, ")")
    block = _parse_block(ts)
    return GV("FuncDef", (ty, name, tuple(params), block))


def _parse_param(ts: TokenStream) -> GenericValue:
    pty = _parse_type(ts)
    return GV("Param", (pty, parse_ident(ts)))


def _parse_block(ts: TokenStream) -> GenericValue:
    ts.expect("{")
    items = []
    while not ts.at("}"):
        if _at_type(ts):
            items.append(GV("DeclItem", (_parse_decl(ts),)))
        else:
            items.append(GV("StmtItem", (_parse_stmt(ts),)))
    ts.expect("}")
    return GV("Block", (tuple(items),))


def _parse_decl(ts: TokenStream) -> GenericValue:
    ty = _parse_type(ts)
    dtors = ts.comma_list(_parse_declarator)
    ts.expect(";")
    return GV("Decl", (ty, tuple(dtors)))


def _parse_declarator(ts: TokenStream) -> GenericValue:
    name = parse_ident(ts)
    if ts.accept("="):
        if ts.accept("{"):
            init = GV("ArrInit", (tuple(ts.comma_list(_parse_expr, "}")),))
        else:
            init = GV("ExprInit", (_parse_expr(ts),))
        opt = GV("SomeInit", (init,))
    else:
        opt = GV("NoInit")
    return GV("Declarator", (name, opt))


def _parse_stmt(ts: TokenStream) -> GenericValue:
    if _at_type(ts):
        raise ts.error("declaration not allowed here; wrap it in a block")
    return parse_c_stmt(ts, _parse_expr, _parse_stmt, _parse_block)


_parse_expr = expression_parser(
    _PREC, "!", "IntLit", _KEYWORDS, targets=("VarE", "IndexE"),
    target_message="assignment target must be a variable or index",
)


# ---------------------------------------------------------------------------
# Pretty-printing

_TYPE_STR = {"TInt": "int", "TBool": "bool", "TIntArr": "int[]"}


def _own_expr_str(e: GenericValue, ctx: int) -> str:
    c = e.ctor
    if c == "UnaryE":
        out = f"{e.args[0]}{_expr_str(e.args[1], 8)}"
        return f"({out})" if ctx > 8 else out
    raise ValueError(f"not a MiniC expression: {c}")


_expr_str = expr_printer(_PREC, _own_expr_str)


def _init_str(init: GenericValue) -> str:
    if init.ctor == "ExprInit":
        return _expr_str(init.args[0])
    return "{" + ", ".join(_expr_str(e) for e in init.args[0]) + "}"


def _decl_str(d: GenericValue) -> str:
    ty, dtors = d.args
    parts = []
    for dtor in dtors:
        name = dtor.args[0].args[0]
        opt = dtor.args[1]
        if opt.ctor == "SomeInit":
            parts.append(f"{name} = {_init_str(opt.args[0])}")
        else:
            parts.append(name)
    return f"{_TYPE_STR[ty.ctor]} {', '.join(parts)};"


def _dangles(s: GenericValue) -> bool:
    # An unbraced trailing if with no else would capture our else clause.
    while True:
        c = s.ctor
        if c == "IfStmt":
            els = s.args[2]
            if els.ctor == "NoElse":
                return True
            s = els.args[0]
        elif c == "WhileStmt":
            s = s.args[1]
        elif c == "ForStmt":
            s = s.args[3]
        else:
            return False


def _inner(block: GenericValue) -> list:
    return [
        _decl_str(item.args[0]) if item.ctor == "DeclItem" else item.args[0]
        for item in block.args[0]
    ]


def _body(header: str, body: GenericValue, force_brace: bool = False) -> tuple:
    if body.ctor == "BlockStmt":
        return (header + " {", INDENT, *_inner(body.args[0]), DEDENT, "}")
    if force_brace:
        return (header + " {", INDENT, body, DEDENT, "}")
    return (header, INDENT, body, DEDENT)


def _if_else(header: str, then: GenericValue, els: GenericValue) -> tuple:
    return (*_body(header, then, _dangles(then)), *_body("else", els))


_layout = c_stmt_layout("MiniC", _expr_str, _inner, _body, _if_else, {})


@gc_paused
def pretty(ast: GenericValue) -> str:
    parts = []
    for i, func in enumerate(ast.args[0]):
        if i:
            parts.append("")
        ty, name, params, block = func.args
        plist = ", ".join(
            f"{_TYPE_STR[p.args[0].ctor]} {p.args[1].args[0]}" for p in params
        )
        header = f"{_TYPE_STR[ty.ctor]} {name.args[0]}({plist}) {{"
        parts += (header, INDENT, *_inner(block), DEDENT, "}")
    return render(parts, _layout)


# ---------------------------------------------------------------------------
# Genericized signature and injections

IDENT_IS_MINIC = NodeKind("IdentIsMiniCIdent", (), (IDENT_L,), S("Ident"))
ASSIGN_IS_EXPR = NodeKind("AssignIsMiniCExpr", (), (ASSIGN_L,), S("Expr"))
EXPR_IS_LHS = NodeKind("MiniCExprIsLhs", (), (S("Expr"),), LHS_L)
EXPR_IS_RHS = NodeKind("MiniCExprIsRhs", (), (S("Expr"),), RHS_L)
TYPE_IS_ATTRS = NodeKind("MiniCTypeIsCommonAttrs", (), (S("Type"),), COMMON_ATTRS_L)
INIT_IS_INIT = NodeKind("MiniCInitIsLocalVarInit", (), (S("Init"),), LOCAL_VAR_INIT_L)
STMT_IS_ITEM = NodeKind("MiniCStmtIsBlockItem", (), (S("Stmt"),), BLOCK_ITEM_L)
BLOCK_IS_MINIC = NodeKind("GenericBlockIsMiniCBlock", (), (BLOCK_L,), S("Block"))

_ident_term, _TRANS, _UNTRANS = ident_assign_cases(
    IDENT_IS_MINIC, C.Ident, ASSIGN_IS_EXPR, EXPR_IS_LHS, EXPR_IS_RHS, C.AssignE,
    target="a MiniC expression", source="a MiniC expression",
)


class _Body(BodyCodec):
    """A MiniC body is a statement, braced or bare."""

    fresh = False

    def open(self, stmt: Term) -> tuple[Term, bool]:
        if stmt.kind.name != "MiniC.BlockStmt":
            return generic_block([self.item(stmt)]), False
        block = stmt.children[0]
        expect(block.kind == BLOCK_IS_MINIC, "block statement body is foreign")
        return block.children[0], True

    def close(self, generic: Term, braced: bool) -> Term:
        items = () if braced else block_items(generic)
        if len(items) == 1 and items[0].kind == STMT_IS_ITEM:
            return items[0].children[0]
        return C.BlockStmt(self.close_block(generic, None))


BODY = _Body(BLOCK_IS_MINIC, STMT_IS_ITEM)
_DTOR_TRANS, _UN_DTOR = declarator_cases(
    C, C.Declarator, IDENT_IS_MINIC, INIT_IS_INIT, "MiniC", "a MiniC initializer"
)


def _tr_decl(v: GenericValue, walk) -> Term:
    ty, dtors = v.args
    ty = walk(ty)
    return multi_decl(list(map(walk, list_items(dtors))), TYPE_IS_ATTRS.build(ty))


def _un_decl(multi: Term) -> list:
    attrs, singles = multi.children
    expect(attrs.kind == TYPE_IS_ATTRS, "declaration attributes are not a MiniC type")
    return [*((_UN_DTOR, s) for s in singles.children), attrs.children[0]]


_BLOCK_TRANS, _BLOCK_UNTRANS = block_cases(
    BODY, C.Block, C.Decl, _tr_decl,
    Case(_un_decl, lambda multi, v: GV("Decl", (v[-1], tuple(v[:-1])))),
    (C.StmtItem, C.DeclItem),
)
_CASES = {**_TRANS, **_DTOR_TRANS, **_BLOCK_TRANS}
IPS, TABLE = genericize(
    MOD, _CASES,
    [
        IDENT_IS_MINIC, ASSIGN_IS_EXPR, EXPR_IS_LHS, EXPR_IS_RHS,
        TYPE_IS_ATTRS, INIT_IS_INIT, STMT_IS_ITEM, BLOCK_IS_MINIC,
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
    # `int x = <expr mentioning x>` refers to the x being declared.
    binder_in_scope_in_init = True

    def var_init_to_rhs(self, common_attrs: Term, decl_attrs: Term, init: Term) -> Term:
        expect(init.kind == INIT_IS_INIT, "not a MiniC initializer")
        inner = init.children[0]
        if inner.kind.name == "MiniC.ExprInit":
            return EXPR_IS_RHS.build(inner.children[0])
        # Braced initializers become calls to the array builtin.
        elems = inner.children[0]
        call = C.CallE(_ident_term("array"), elems)
        return EXPR_IS_RHS.build(call)

    def var_decl_binder_to_lhs(self, binder: Term) -> Term:
        name = ident_names(binder)[0]
        return EXPR_IS_LHS.build(C.VarE(_ident_term(name)))


# ---------------------------------------------------------------------------
# Structural adapter

# The parts of `cov[i] = true` that do not depend on i, built once.
_COV, _TRUE = C.VarE(_ident_term("cov")), EXPR_IS_RHS.build(C.BoolLit(True))


class _Adapter:
    item_view = staticmethod(c_item_view(C, BODY))
    # FuncDef children: type, name, params, block wrapper.
    body_paths = staticmethod(func_body_paths((3, 0)))

    def make_cov_marker(self, index: int) -> Term:
        cell = C.IndexE(_COV, C.IntLit(index))
        return TABLE.inj(assign(EXPR_IS_LHS.build(cell), _TRUE), BLOCK_ITEM_L)


# ---------------------------------------------------------------------------
# Evaluation

def _default_value(ty: GenericValue):
    if ty.ctor == "TBool":
        return False
    if ty.ctor == "TIntArr":
        return []
    return 0


def _render(v) -> str:
    if v is None:
        return "void"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[" + ", ".join(_render(x) for x in v) + "]"
    if v is COV:
        return "cov"
    return str(v)


def _read_index(base, idx):
    if not isinstance(base, list):
        raise Trap("type")
    if not 0 <= idx < len(base):
        raise Trap("index")
    return base[idx]


def _store_index(base, idx, value):
    _read_index(base, idx)  # the traps of a read
    base[idx] = value
    return value


def _truthy(v) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v != 0
    raise Trap("type")


def _decl_item(comp: CCompiler, item: GenericValue) -> Callable:
    ty, dtors = item.args[0].args
    inits = []
    for dtor in dtors:
        opt = dtor.args[1]
        init = opt.args[0] if opt.ctor == "SomeInit" else None
        name = dtor.args[0].args[0]
        # the binder is in scope inside its own initializer
        comp.declare(name)
        if init is None:
            code = None
        elif init.ctor == "ExprInit":
            code = comp.expr(init.args[0])
        else:
            code = _array_init([comp.expr(e) for e in init.args[0]])
        inits.append((name, code))

    def decl(st, env, ty=ty, inits=inits):
        st.fuel -= 1
        scope = env[-1]
        for name, code in inits:
            scope[name] = _default_value(ty)
            if code is not None:
                scope[name] = code(st, env)

    return decl


def _array_init(elems: list) -> Callable:
    def array(st, env, elems=elems):
        return [c(st, env) for c in elems]

    return array


def _equal(x, y) -> bool:
    """`==`: a bool and an integer, or an array, trap."""
    if isinstance(x, bool) != isinstance(y, bool):
        raise Trap("type")
    if isinstance(x, list) or isinstance(y, list):
        raise Trap("type")
    return x == y


def _and(comp: CCompiler, e: GenericValue) -> Callable:
    def and_(st, env, a=comp.expr(e.args[1]), b=comp.expr(e.args[2])):
        st.fuel -= 1
        if not _truthy(a(st, env)):
            return False
        return _truthy(b(st, env))

    return and_


def _or(comp: CCompiler, e: GenericValue) -> Callable:
    def or_(st, env, a=comp.expr(e.args[1]), b=comp.expr(e.args[2])):
        st.fuel -= 1
        if _truthy(a(st, env)):
            return True
        return _truthy(b(st, env))

    return or_


class _Compiler(CCompiler):
    render = staticmethod(_render)
    truthy = staticmethod(_truthy)
    read_index = staticmethod(_read_index)
    store_index = staticmethod(_store_index)
    void = 0
    EXPR = {**CCompiler.EXPR, "IntLit": literal}
    BINOP = {"==": equality(_equal), "!=": equality(_equal), "&&": _and, "||": _or}
    BOOL_OPS = CCompiler.BOOL_OPS | {"&&", "||"}
    DECLARES = frozenset({"DeclItem"})
    BUILTINS = {"array": list}

    @staticmethod
    def items_of(block: GenericValue) -> tuple:
        return block.args[0]

    @staticmethod
    def routine_block(func: GenericValue) -> GenericValue:
        return func.args[3]

    def start(self, st):
        main = self.main()
        return call_user(st, main, [_default_value(p.args[0]) for p in main.args[2]])

    @staticmethod
    def params(func: GenericValue) -> list:
        return [p.args[1].args[0] for p in func.args[2]]

    def item(self, item: GenericValue) -> Callable:
        if item.ctor == "DeclItem":
            return self.hooked(item, _decl_item(self, item))
        return self.stmt(item.args[0], item)

    def body(self, stmt: GenericValue) -> Callable:
        """A statement in body position occupies an item slot; a braced
        body is a block."""
        if stmt.ctor == "BlockStmt":
            return self.block(stmt.args[0])
        return self.stmt(stmt)

    @staticmethod
    def unbound(name: str):
        if name == "cov":
            return COV
        raise Trap("undef")

    @staticmethod
    def undeclared(st, name: str, value) -> None:
        raise Trap("undef")


def run(ast: GenericValue, fuel: int = 100_000,
        on_item: Callable | None = None,
        on_enter: Callable | None = None) -> RunResult:
    funcs = {f.args[1].args[0]: f for f in ast.args[0]}
    return _Compiler(funcs, on_item, on_enter).run(fuel)


def _items_below(node: GenericValue) -> tuple:
    """The item-position nodes directly below an item or a bare body."""
    s = node.args[0] if node.ctor == "StmtItem" else node
    c = s.ctor
    if c == "IfStmt":
        els = s.args[2]
        return (*_body_items(s.args[1]),
                *(_body_items(els.args[0]) if els.ctor == "SomeElse" else ()))
    if c == "WhileStmt" or c == "ForStmt":
        return _body_items(s.args[-1])
    if c == "BlockStmt":
        return s.args[0].args[0]
    return ()


def _body_items(stmt: GenericValue) -> tuple:
    """A braced body's items, or a bare body statement itself."""
    return stmt.args[0].args[0] if stmt.ctor == "BlockStmt" else (stmt,)


def item_walk(ast: GenericValue) -> list[GenericValue]:
    """All item-position nodes in the order coverage analysis numbers them."""
    return pre_order([it for func in ast.args[0] for it in func.args[3].args[0]], _items_below)


register(
    LanguageDef(
        name="minic",
        file_ext=".mc",
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
        run=run,
        item_walk=item_walk,
    )
)
