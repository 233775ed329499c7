"""Language registration: everything a frontend contributes to the toolkit.

A LanguageDef bundles the surface schema, the modularized and the
genericized signatures, the injection table, the syntactic operations, and
structural adapters that let transformations inspect statements without
knowing the concrete grammar.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import is_
from types import SimpleNamespace

from ..fragments import (
    BLOCK,
    BLOCK_ITEM_L,
    EMPTY_BLOCK_END,
    IDENT,
    IDENT_IS_BINDER,
    JUST_INIT,
    MULTI_DECL,
    MULTI_DECL_IS_ITEM,
    NO_INIT,
    LanguageOps,
    assert_reserved_disjoint,
    assign,
    generic_signature,
    ident,
    single_decl,
)
from ..injections import InjectionDecl, InjectionTable
from ..records import Frozen
from ..schema import (
    Case,
    GenericValue,
    ModularizedLanguage,
    Schema,
    from_modular,
    list_items,
    sum_signatures,
    to_modular,
)
from ..terms import (
    NodeKind,
    Signature,
    SortMismatch,
    Term,
    build_list,
    gc_paused,
    list_kind,
    mk_term,
)
from ..traversal import Path


class UnrepresentableTerm(Exception):
    """A genericized term with no concrete-syntax counterpart."""


# ---------------------------------------------------------------------------
# Structural views of block items.  Adapters classify each item into one of
# these so control-flow analysis and rewriting stay language independent.
# A view is built from its parts, in FIELDS order, then the adapter's
# build callback, which takes the parts in that order and folds them back
# into an item of the original sort.  BLOCKS names the parts that hold
# generic Block terms; the flow layer reaches sub-blocks only through
# `blocks()` and `rebuild`, so the name of such a part is its slot in a
# block path.


class ItemView:
    """A block item as its parts; the base of every view."""

    FIELDS: tuple[str, ...] = ()
    BLOCKS: tuple[str, ...] = ()

    def __init__(self, *parts_then_build):
        self.__dict__.update(zip(self.FIELDS, parts_then_build))
        self.build = parts_then_build[-1] if parts_then_build else None

    def blocks(self) -> list[tuple[str, Term]]:
        """(part name, generic Block) of each sub-block, skipping an
        absent one (an if without else)."""
        parts = self.__dict__
        return [(name, parts[name]) for name in self.BLOCKS if parts[name] is not None]

    def rebuild(self, **parts) -> Term:
        """The item with the named parts replaced."""
        old = self.__dict__
        return self.build(*[parts.get(name, old[name]) for name in self.FIELDS])


class PlainView(ItemView):
    """No control flow and no nested blocks."""


class BreakView(ItemView):
    pass


class ContinueView(ItemView):
    pass


class ReturnView(ItemView):
    FIELDS = ("value",)  # None for a bare return


class ExprStmtView(ItemView):
    FIELDS = ("expr",)


class AssignView(ItemView):
    """A statement-level (possibly parallel) assignment; its parts are
    tuples of target and of source expressions."""

    FIELDS = ("targets", "sources")


class IfView(ItemView):
    FIELDS = ("cond", "then", "orelse")  # orelse is None without an else
    BLOCKS = ("then", "orelse")


class NestedBlockView(ItemView):
    """A bare block statement."""

    FIELDS = ("block",)
    BLOCKS = ("block",)


class LoopView(ItemView):
    """A loop whose one sub-block is its body."""

    BLOCKS = ("body",)


class WhileView(LoopView):
    FIELDS = ("cond", "body")


class ForView(LoopView):
    """C-style three-clause loop; absent clauses are None."""

    FIELDS = ("init", "cond", "step", "body")


class ForNumView(LoopView):
    """Counted loop over a fresh variable; bounds evaluated once."""

    FIELDS = ("low", "high", "step", "body")


# The part-less views, one instance each.
PLAIN, BREAK, CONTINUE = PlainView(), BreakView(), ContinueView()


class BodyCodec:
    """How a frontend's bodies open into generic Blocks and close back.

    A block of the frontend is a generic Block under the injection
    `block_is`; its statements are block items under `stmt_is`.  A body
    slot (the body of an if or a loop) holds a block unless a subclass
    says otherwise.  `open` returns a slot's generic Block and what
    `close` needs to give the slot its form back; `fresh` is that for a
    body built from scratch.  `open_block`/`close_block` do the same for
    a block itself (a function body or a nested block statement).
    """

    fresh = None

    def __init__(self, block_is: NodeKind, stmt_is: NodeKind):
        self.block_is = block_is
        self.stmt_is = stmt_is

    def open_block(self, block: Term) -> tuple[Term, object]:
        expect(block.kind == self.block_is, "block body is foreign")
        return block.children[0], None

    def close_block(self, generic: Term, keep) -> Term:
        return self.block_is.build(generic)

    def open(self, slot: Term) -> tuple[Term, object]:
        return self.open_block(slot)

    def close(self, generic: Term, keep) -> Term:
        return self.close_block(generic, keep)

    def item(self, stmt: Term) -> Term:
        return self.stmt_is.build(stmt)


def item_viewer(body: BodyCodec, arms: dict) -> Callable[[Term], ItemView]:
    """An adapter's item_view: `arms` maps a statement kind to the view
    of such a statement; every other block item is a PlainView."""
    by_name = {kind.name: arm for kind, arm in arms.items()}

    def item_view(item: Term) -> ItemView:
        if item.kind != body.stmt_is:
            return PLAIN
        stmt = item.children[0]
        arm = by_name.get(stmt.kind.name)
        return PLAIN if arm is None else arm(stmt)

    return item_view


def optional(some_ctor: Callable, none_ctor: Callable) -> Callable:
    """The surface option builder: `some_ctor(v)`, or `none_ctor()` for None."""
    return lambda v: none_ctor() if v is None else some_ctor(v)


def _same_stmt(body: BodyCodec, stmt: Term, *children: Term) -> Term:
    """A statement of stmt's kind with new children, as a block item."""
    return body.item(mk_term(stmt.kind, (), children))


def shared_arms(body: BodyCodec, C, ret_opt: Callable, nested: Callable,
                expr: Callable) -> dict:
    """The view arms whose statements every bundled language writes
    alike: while, return (`ret_opt` builds its option), break, the
    `nested` block statement and the `expr` statement."""

    def while_view(stmt: Term) -> WhileView:
        cond, slot = stmt.children
        block, keep = body.open(slot)
        return WhileView(
            cond, block, lambda c, b: _same_stmt(body, stmt, c, body.close(b, keep))
        )

    def nested_view(stmt: Term) -> NestedBlockView:
        block, keep = body.open_block(stmt.children[0])
        return NestedBlockView(
            block, lambda b: _same_stmt(body, stmt, body.close_block(b, keep))
        )

    return {
        C.WhileStmt.kind: while_view,
        C.ReturnStmt.kind: lambda s: ReturnView(
            some(s.children[0]), lambda v: _same_stmt(body, s, ret_opt(v))
        ),
        C.BreakStmt.kind: lambda s: BREAK,
        nested.kind: nested_view,
        expr.kind: lambda s: ExprStmtView(
            s.children[0], lambda e: _same_stmt(body, s, e)
        ),
    }


def c_item_view(C, body: BodyCodec) -> Callable[[Term], ItemView]:
    """item_view of the C-like statements MiniC and MiniJS share."""
    opt = optional(C.SomeExpr, C.NoExpr)

    def if_view(stmt: Term) -> IfView:
        cond, then, els = stmt.children
        then_block, then_keep = body.open(then)
        else_slot = some(els)
        else_block, else_keep = (
            (None, body.fresh) if else_slot is None else body.open(else_slot)
        )

        def rebuild(c: Term, tb: Term, eb: Term | None) -> Term:
            new_else = C.NoElse() if eb is None else C.SomeElse(body.close(eb, else_keep))
            return body.item(C.IfStmt(c, body.close(tb, then_keep), new_else))

        return IfView(cond, then_block, else_block, rebuild)

    def for_view(stmt: Term) -> ForView:
        init, cond, step, slot = stmt.children
        block, keep = body.open(slot)

        def rebuild(i, c, s, b):
            return body.item(C.ForStmt(opt(i), opt(c), opt(s), body.close(b, keep)))

        return ForView(some(init), some(cond), some(step), block, rebuild)

    return item_viewer(body, {
        **shared_arms(body, C, opt, C.BlockStmt, C.ExprStmt),
        C.IfStmt.kind: if_view,
        C.ForStmt.kind: for_view,
        C.ContinueStmt.kind: lambda s: CONTINUE,
    })


def func_body_paths(suffix: Path) -> Callable[[Term], list[Path]]:
    """body_paths of a program whose root holds a list of functions;
    `suffix` leads from a function to its generic body Block."""

    def body_paths(root: Term) -> list[Path]:
        return [(0, i, *suffix) for i in range(len(root.children[0].children))]

    return body_paths


def pre_order(roots, below: Callable) -> list:
    """Each of roots, each followed by the nodes below it, in pre-order:
    `below(node)` gives the nodes directly below node, in order.  The
    walk keeps a stack of iterators, so nesting takes no Python frames;
    a frontend's item_walk is this walk over its item-position nodes."""
    out = []
    todo = [iter(roots)]
    while todo:
        for node in todo[-1]:
            out.append(node)
            todo.append(iter(below(node)))
            break
        else:
            todo.pop()
    return out


class TacOps:
    """Expression-level hooks for three-address-code conversion.

    A frontend subclass adds make_decl_item, make_assign_item and
    init_exprs, which returns (expressions, rebuild) for a declaration
    initializer.  Languages without the pass leave the LanguageDef slot
    as None.
    """

    def __init__(self, C, body: BodyCodec, ident_term: Callable[[str], Term],
                 literals: tuple[str, ...], not_op: str,
                 and_or: tuple[str, str], assign_is: NodeKind | None = None):
        self.C = C
        self.body = body
        self.ident_term = ident_term
        self.literals = frozenset(getattr(C, n).kind.name for n in literals)
        self.var = C.VarE.kind.name
        self.member = C.MemberE.kind.name
        self.binop = C.BinE.kind.name
        self.not_op = not_op
        self.and_or = and_or
        self.assign = assign_is.name if assign_is is not None else None
        self.expr_sort = C.VarE.kind.produced
        self.expr_list_sort = list_kind(self.expr_sort).produced

    def classify(self, expr: Term) -> tuple:
        """One of ("atomic",), ("shortcircuit", is_and, left, right),
        ("assign", target, source), or ("operands", parts, rebuild) where
        rebuild maps replacement parts back to an expression."""
        if self.is_atomic(expr):
            return ("atomic",)
        name = expr.kind.name
        if name == self.assign:
            lhs_w, _, rhs_w = expr.children[0].children
            return ("assign", lhs_w.children[0], rhs_w.children[0])
        if name == self.binop and expr.payload_values[0] in self.and_or:
            op = expr.payload_values[0]
            return ("shortcircuit", op == self.and_or[0], *expr.children)
        return self.split_operands(expr)

    def is_atomic(self, expr: Term) -> bool:
        name = expr.kind.name
        if name in self.literals or name == self.var:
            return True
        if name == self.member:
            return self.is_atomic(expr.children[0])
        return False

    def is_effect_free(self, expr: Term) -> bool:
        return expr.kind.name in self.literals

    def make_var(self, name: str) -> Term:
        return self.C.VarE(self.ident_term(name))

    def make_not(self, expr: Term) -> Term:
        return self.C.UnaryE(self.not_op, expr)

    def make_if_item(self, cond: Term, then_items: list) -> Term:
        """`if cond then then_items` with no else, as a block item."""
        then = self.body.close(generic_block(then_items), self.body.fresh)
        return self.body.item(self.C.IfStmt(cond, then, self.C.NoElse()))

    def split_operands(self, expr: Term) -> tuple:
        """Expose the direct expression operands of a compound expression."""
        slots = []  # (child index, None) or (child index, list position)
        parts = []
        for i, (sort, child) in enumerate(zip(expr.kind.child_sorts, expr.children)):
            if sort is self.expr_sort:
                slots.append((i, None))
                parts.append(child)
            elif sort is self.expr_list_sort:
                for j, elem in enumerate(child.children):
                    slots.append((i, j))
                    parts.append(elem)

        def rebuild(new_parts: list) -> Term:
            children = list(expr.children)
            lists: dict[int, list] = {}
            for (i, j), part in zip(slots, new_parts):
                if j is None:
                    children[i] = part
                else:
                    lists.setdefault(i, list(expr.children[i].children))[j] = part
            for i, elems in lists.items():
                children[i] = mk_term(expr.children[i].kind, (), elems)
            return mk_term(expr.kind, expr.payload_values, tuple(children))

        return ("operands", parts, rebuild)


class Adapter:
    """Structural hooks transformations need from a frontend.

    A frontend's adapter has these methods; it need not derive from this
    class, which documents them.
    """

    def item_view(self, item: Term) -> ItemView: ...

    def body_paths(self, root: Term) -> list[Path]:
        """Paths to each routine's generic body Block, in source order."""

    def make_cov_marker(self, index: int) -> Term:
        """A block item recording that coverage cell `index` was reached."""


class LanguageDef(Frozen):
    """One registered frontend.  `decompose` and `recompose` take a parsed
    value to its IPS term and back, each in one walk: `schema.walker` and
    `schema.reader` with the frontend's cases."""

    __slots__ = ("name", "file_ext", "schema", "modularized", "ips", "injections", "ops",
                 "adapter", "parse", "pretty", "decompose", "recompose", "run", "item_walk",
                 "tac")

    def __init__(self, name: str, file_ext: str, schema: Schema,
                 modularized: ModularizedLanguage, ips: Signature, injections: InjectionTable,
                 ops: LanguageOps, adapter: Adapter, parse: Callable[[str], GenericValue],
                 pretty: Callable[[GenericValue], str],
                 decompose: Callable[[GenericValue], Term],
                 recompose: Callable[[Term], GenericValue], run: Callable,
                 item_walk: Callable, tac: TacOps | None = None):
        Frozen.__init__(self, name, file_ext, schema, modularized, ips, injections, ops, adapter,
                        parse, pretty, decompose, recompose, run, item_walk, tac)
        assert_reserved_disjoint(dict(modularized.sort_of).values())

    @gc_paused
    def trans_ips(self, term: Term) -> Term:
        """The IPS term of a term of the modular signature: decompose of
        the value it stands for, which is O(1) to find for a term straight
        from `schema.to_modular`."""
        return self.decompose(from_modular(self.modularized, term))

    @gc_paused
    def untrans_ips(self, term: Term) -> Term:
        """to_modular of the recomposed value: from_modular of it is O(1)."""
        return to_modular(self.modularized, self.recompose(term))


_REGISTRY: dict[str, LanguageDef] = {}


def register(lang: LanguageDef) -> LanguageDef:
    if lang.name in _REGISTRY:
        raise ValueError(f"language {lang.name} already registered")
    _REGISTRY[lang.name] = lang
    return lang


def get_language(name: str) -> LanguageDef:
    _load_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown language {name!r}") from None


def language_names() -> list[str]:
    _load_builtin()
    return sorted(_REGISTRY)


def _load_builtin() -> None:
    from . import minic, minijs, minilua  # noqa: F401


# ---------------------------------------------------------------------------
# Incremental parametric syntax scaffolding shared by the frontends.


def constructors(mod: ModularizedLanguage) -> SimpleNamespace:
    """Each surface constructor's builder, the `build` of its node kind:
    `C.IfStmt(cond, then, els)`.  Payload arguments come first, then
    children; each builder's `kind` attribute is its node kind."""
    prefix = len(mod.signature.name) + 1
    return SimpleNamespace(**{k.name[prefix:]: k.build for k in mod.signature.kinds})


def genericize(
    mod: ModularizedLanguage, cases: dict, injections: list[NodeKind]
) -> tuple[Signature, InjectionTable]:
    """The language's IPS signature and injection table.  The generic
    fragments replace the surface constructors the decompose `cases`
    translate; each injection kind declares the edge from its one child's
    sort to its own sort."""
    name = mod.signature.name
    ips = sum_signatures(
        f"{name}+Generic",
        [mod.signature, generic_signature()],
        minus=[f"{name}.{ctor}" for ctor in cases],
        plus=[k for k in injections if not mod.signature.has_kind(k.name)],
    )
    table = InjectionTable(ips)
    for kind in injections:
        table.declare(InjectionDecl(kind.child_sorts[0], kind.produced, (kind,)))
    return ips, table


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise UnrepresentableTerm(what)


def ctor_name(build: Callable) -> str:
    """The constructor a builder of `constructors` builds, which keys a
    trans case."""
    return build.kind.name.partition(".")[2]


def ident_assign_cases(
    ident_is: NodeKind, surface_ident: Callable,
    assign_is: NodeKind, lhs_is: NodeKind, rhs_is: NodeKind,
    surface_assign: Callable, target: str, source: str,
) -> tuple[Callable[[str], Term], dict, dict]:
    """(ident_term, trans cases, untrans cases): the identifier and
    assignment cases of decompose and recompose.  `target` and `source`
    name what the assignment's sides hold, for error messages."""
    ident_ctor, assign_ctor = ctor_name(surface_ident), ctor_name(surface_assign)

    def ident_term(name: str) -> Term:
        return ident_is.build(ident(name))

    def tr_ident(v: GenericValue, walk) -> Term:
        return ident_is.build(ident(v.args[0]))

    def tr_assign(v: GenericValue, walk) -> Term:
        lhs, rhs = v.args
        lhs, rhs = walk(lhs), walk(rhs)
        return assign_is.build(assign(lhs_is.build(lhs), rhs_is.build(rhs)))

    def un_ident(t: Term) -> GenericValue:
        inner = t.children[0]
        expect(inner.kind is IDENT, "expected a generic identifier")
        return GenericValue(ident_ctor, inner.payload_values)

    def un_assign(t: Term) -> tuple:
        inner = t.children[0]
        expect(inner.kind.name == "Assign", "expected a generic assignment")
        lhs_w, op, rhs_w = inner.children
        expect(op.kind.name == "AssignOpEquals", "unsupported assignment operator")
        expect(lhs_w.kind == lhs_is, f"assignment target is not {target}")
        expect(rhs_w.kind == rhs_is, f"assignment source is not {source}")
        return lhs_w.children[0], rhs_w.children[0]

    return (
        ident_term,
        {ident_ctor: tr_ident, assign_ctor: tr_assign},
        {ident_is.name: Case(un_ident, None),
         assign_is.name: Case(un_assign, lambda t, v: GenericValue(assign_ctor, tuple(v)))},
    )


def block_cases(body: BodyCodec, surface_block: Callable, decl: Callable,
                tr_decl: Callable, un_decl: Case,
                items: tuple[Callable, Callable] | None = None) -> tuple[dict, dict]:
    """(trans cases, untrans cases) of a frontend's statement list: the
    surface block `surface_block` holds statements and `decl`
    declarations, and its generic Block holds them under the codec's
    `stmt_is` and MULTI_DECL_IS_ITEM.  `tr_decl` is the trans case of
    `decl`, which gives a MultiLocalVarDecl; `un_decl` reads one back.
    With `items`, the builders of a statement item and a declaration
    item, each block element sits in one of those."""
    block_ctor = ctor_name(surface_block)
    cases = {ctor_name(decl): tr_decl}
    if items is not None:
        stmt_item, decl_item = map(ctor_name, items)
        cases[stmt_item] = body.stmt_is
        cases[decl_item] = MULTI_DECL_IS_ITEM

    def tr_block(v: GenericValue, walk) -> Term:
        elems = list(map(walk, list_items(v.args[0])))
        if items is None:
            elems = [
                MULTI_DECL_IS_ITEM.build(t) if t.kind is MULTI_DECL else body.item(t)
                for t in elems
            ]
        return body.block_is.build(generic_block(elems))

    def un_decl_item(item: Term):
        expect(item.kind == MULTI_DECL_IS_ITEM, f"unexpected block item {item.kind.name}")
        multi = item.children[0]
        expect(multi.kind.name == "MultiLocalVarDecl", "expected a generic declaration")
        return un_decl.down(multi)

    def decl_value(item: Term, values: list) -> GenericValue:
        decl = un_decl.up(item.children[0], values)
        return decl if items is None else GenericValue(decl_item, (decl,))

    decl_case = Case(un_decl_item, decl_value)

    # A statement is read by its kind; any other item checks its own kind
    # in its turn, after the items before it.
    def un_block(t: Term) -> list:
        return [item.children[0] if item.kind == body.stmt_is else (decl_case, item)
                for item in block_items(t.children[0])]

    def block_value(t: Term, elems: list) -> GenericValue:
        if items is not None:
            elems = [GenericValue(stmt_item, (e,)) if i.kind == body.stmt_is else e
                     for i, e in zip(block_items(t.children[0]), elems)]
        return GenericValue(block_ctor, (tuple(elems),))

    cases[block_ctor] = tr_block
    return cases, {body.block_is.name: Case(un_block, block_value)}


def declarator_cases(C, dtor: Callable, ident_is: NodeKind, init_is: NodeKind,
                     lang: str, init_what: str) -> tuple[dict, Case]:
    """(trans cases, untrans case) of the declarator lists MiniC and MiniJS
    share: `dtor` builds a declarator from an identifier, which decompose
    gives under `ident_is`, and a `SomeInit`/`NoInit` initializer, which
    the generic side holds under `init_is`.  Each declarator becomes a
    SingleLocalVarDecl, which the untrans case reads back.  `lang` and
    `init_what` name the language and the initializer in error messages."""
    ident_sort = ident_is.produced
    dtor_ctor, ident_ctor = ctor_name(dtor), ctor_name(C.Ident)
    option_trans, un_option = option_cases(C.SomeInit, C.NoInit, init_is, init_what)

    def tr_dtor(v: GenericValue, walk) -> Term:
        name, opt = v.args
        name, opt = walk(name), walk(opt)
        if name.sort != ident_sort:
            raise SortMismatch(0, ident_sort, name.sort)
        return single_decl(IDENT_IS_BINDER.build(name.children[0]), opt)

    def un_dtor(single: Term) -> tuple:
        _, binder, opt = single.children
        expect(binder.kind == IDENT_IS_BINDER, f"{lang} binders are single identifiers")
        expect(binder.children[0].kind == IDENT, "expected a generic identifier")
        return ((un_option, opt),)

    def dtor_value(single: Term, opt: list) -> GenericValue:
        name = GenericValue(ident_ctor, single.children[1].children[0].payload_values)
        return GenericValue(dtor_ctor, (name, opt[0]))

    return {ctor_name(dtor): tr_dtor, **option_trans}, Case(un_dtor, dtor_value)


def option_cases(some_ctor: Callable, none_ctor: Callable, init_is: NodeKind,
                 init_what: str) -> tuple[dict, Case]:
    """(trans cases, untrans case) of a declaration's initializer option:
    `some_ctor` holds an initializer, which the generic side holds under
    `init_is`.  The untrans case reads a generic initializer option back;
    `init_what` names the initializer in error messages."""
    some_ctor_name = ctor_name(some_ctor)
    none = GenericValue(ctor_name(none_ctor))

    def un_option(opt: Term) -> tuple:
        if opt.kind == JUST_INIT:
            init_w = opt.children[0]
            expect(init_w.kind == init_is, f"initializer is not {init_what}")
            return init_w.children
        expect(opt.kind == NO_INIT, "expected a generic initializer option")
        return ()

    def option_value(opt: Term, init: list) -> GenericValue:
        return GenericValue(some_ctor_name, (init[0],)) if init else none

    return {
        some_ctor_name:
            lambda v, walk: JUST_INIT.build(init_is.build(walk(v.args[0]))),
        ctor_name(none_ctor): lambda v, walk: NO_INIT.build(),
    }, Case(un_option, option_value)


def some(option: Term) -> Term | None:
    """The value of a surface option node (`SomeExpr e`), or None for the
    empty one (`NoExpr`)."""
    return option.children[0] if option.children else None


def generic_block(items: list[Term]) -> Term:
    return BLOCK.build(build_list(BLOCK_ITEM_L, items), EMPTY_BLOCK_END.build())


def block_items(block: Term) -> tuple[Term, ...]:
    if block.kind != BLOCK:
        raise UnrepresentableTerm(f"expected a generic block, got {block.kind.name}")
    return block.children[0].children


def with_block_items(block: Term, items: list[Term]) -> Term:
    """block with its items replaced; block itself if each item is the same
    object as before."""
    old = block_items(block)
    if len(old) == len(items) and all(map(is_, items, old)):
        return block
    return BLOCK.build(build_list(BLOCK_ITEM_L, items), block.children[1])
