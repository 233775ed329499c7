"""Declaration hoisting: move declarations to the top of each block.

Initializers are stripped and replaced in place by plain assignments, so
the result resembles C89-style code.  Both variants are one block walk
with a predicate that leaves a declaration in place.  The elementary
variant's predicate never holds, so it rearranges every block; the full
variant's holds for any declaration whose hoisting would change which
binding some identifier occurrence resolves to, and so it also handles
parallel Lua declarations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fragments import (
    ASSIGN,
    ASSIGN_L,
    BLOCK,
    BLOCK_ITEM_L,
    IDENT,
    JUST_INIT,
    MULTI_DECL,
    MULTI_DECL_L,
    NO_INIT,
    SINGLE_DECL_L,
    assign,
    ident_names,
)
from ..langs.base import LanguageDef, block_items, with_block_items
from ..terms import Term, build_list, gc_paused, iter_subterms, mk_term
from ..traversal import transform_bottom_up


class RequirementMissing(Exception):
    """The language lacks something a pass needs; names the gap."""


@dataclass(frozen=True)
class PassRequirements:
    """What a pass demands of a language before it will run."""

    kinds: tuple = ()
    injections: tuple = ()  # (from sort, to sort) pairs
    ops: tuple = ()  # LanguageOps attribute names

    def check(self, lang: LanguageDef, pass_name: str) -> None:
        for kind in self.kinds:
            if not lang.ips.contains(kind):
                raise RequirementMissing(
                    f"{pass_name} on {lang.name}: signature lacks kind {kind.name}"
                )
        for frm, to in self.injections:
            if not lang.injections.has(frm, to):
                raise RequirementMissing(
                    f"{pass_name} on {lang.name}: no injection "
                    f"{frm.name} -> {to.name}"
                )
        for op in self.ops:
            if getattr(lang.ops, op, None) is None:
                raise RequirementMissing(
                    f"{pass_name} on {lang.name}: LanguageOps lacks {op}"
                )


CAN_HOIST = PassRequirements(
    kinds=(MULTI_DECL, ASSIGN, BLOCK, IDENT),
    injections=((ASSIGN_L, BLOCK_ITEM_L), (MULTI_DECL_L, BLOCK_ITEM_L)),
    ops=("var_init_to_rhs", "var_decl_binder_to_lhs"),
)


def _as_decl(item: Term, lang: LanguageDef):
    """The MultiLocalVarDecl under a block item, or None."""
    return lang.injections.proj(item, MULTI_DECL_L)


def _remove_init(single: Term) -> Term:
    attrs, binder, _ = single.children
    return mk_term(single.kind, (), (attrs, binder, mk_term(NO_INIT)))


def _decl_to_assigns(decl: Term, lang: LanguageDef) -> list[Term]:
    """One assignment per initialized declarator, in declarator order."""
    mattrs, singles = decl.children
    out = []
    for single in singles.children:
        lattrs, binder, opt = single.children
        if opt.kind != JUST_INIT:
            continue
        lhs = lang.ops.var_decl_binder_to_lhs(binder)
        rhs = lang.ops.var_init_to_rhs(mattrs, lattrs, opt.children[0])
        out.append(lang.injections.inj(assign(lhs, rhs), BLOCK_ITEM_L))
    return out


def _split_decl(decl: Term, lang: LanguageDef) -> tuple[Term, list[Term]]:
    """The declaration with its initializers stripped, as a block item,
    and the assignments that replace them."""
    mattrs, singles = decl.children
    stripped = build_list(
        SINGLE_DECL_L, [_remove_init(s) for s in singles.children]
    )
    hoisted = lang.injections.inj(
        mk_term(MULTI_DECL, (), (mattrs, stripped)), BLOCK_ITEM_L
    )
    return hoisted, _decl_to_assigns(decl, lang)


def _hoist(term: Term, lang: LanguageDef, pass_name: str, unsafe) -> Term:
    """Move the declarations of every block to its top, except each one
    at an index i of its block's items for which
    unsafe(_PrefixNames(items), i, lang) holds."""
    CAN_HOIST.check(lang, pass_name)

    def rw(t: Term):
        if t.kind != BLOCK:
            return None
        items = block_items(t)
        prefix = _PrefixNames(items)
        decls: list[Term] = []
        rest: list[Term] = []
        for i, item in enumerate(items):
            decl = _as_decl(item, lang)
            if decl is None or unsafe(prefix, i, lang):
                rest.append(item)
                continue
            hoisted, assigns = _split_decl(decl, lang)
            decls.append(hoisted)
            rest.extend(assigns)
        return with_block_items(t, decls + rest)

    return transform_bottom_up(rw, term)


@gc_paused
def elementary_hoist(term: Term, lang: LanguageDef) -> Term:
    """Rearrange every block, ignoring name capture."""
    return _hoist(term, lang, "elementary_hoist", lambda prefix, i, lang: False)


# ---------------------------------------------------------------------------
# Full hoist: skip shadow-sensitive declarations.


class _PrefixNames:
    """The identifier names in a block's items before a given index, for
    indexes asked in increasing order: each item is scanned once."""

    def __init__(self, items: list[Term]):
        self.items = items
        self.names: set[str] = set()
        self.upto = 0

    def shadow_unsafe(self, index: int, lang: LanguageDef) -> bool:
        """Would hoisting the declaration at `index` to the block top
        change what some identifier occurrence resolves to?

        True when a bound name already occurs anywhere in an earlier item
        of the block (that occurrence currently resolves outside and would
        be captured), or in the declaration's own initializer for
        languages whose binder is not in scope there.
        """
        decl = _as_decl(self.items[index], lang)
        if decl is None:
            raise ValueError("item is not a declaration")
        for earlier in self.items[self.upto:index]:
            self.names.update(ident_names(earlier))
        self.upto = index
        bound = set()
        for single in decl.children[1].children:
            bound.update(ident_names(single.children[1]))
        if bound & self.names:
            return True
        if not lang.ops.binder_in_scope_in_init:
            for single in decl.children[1].children:
                opt = single.children[2]
                if opt.kind == JUST_INIT and not bound.isdisjoint(ident_names(opt.children[0])):
                    return True
        return False


@gc_paused
def hoist(term: Term, lang: LanguageDef) -> Term:
    """As elementary_hoist, but leave shadow-sensitive declarations alone."""
    return _hoist(term, lang, "hoist", _PrefixNames.shadow_unsafe)


def postcondition_violations(term: Term, lang: LanguageDef) -> list[str]:
    """Scan a hoisted output for blocks violating the hoist contract.

    A declaration may follow a non-declaration or keep its initializer
    only if it is shadow-unsafe at its output position (the full hoist
    deliberately leaves those in place).
    """
    problems: list[str] = []
    for t in iter_subterms(term):
        if t.kind != BLOCK:
            continue
        items = block_items(t)
        prefix = _PrefixNames(items)
        seen_stmt = False
        for i, item in enumerate(items):
            decl = _as_decl(item, lang)
            if decl is None:
                seen_stmt = True
                continue
            unsafe = prefix.shadow_unsafe(i, lang)
            if seen_stmt and not unsafe:
                problems.append(f"hoistable declaration after statement at item {i}")
            has_init = any(
                s.children[2].kind == JUST_INIT
                for s in decl.children[1].children
            )
            if has_init and not unsafe:
                problems.append(f"hoistable declaration keeps initializer at item {i}")
    return problems
