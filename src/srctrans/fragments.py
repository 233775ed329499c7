"""Shared generic node kinds and the per-language syntactic operations.

These fragments model identifiers, assignments, blocks, and local variable
declarations with an informal semantics every frontend must honor.  Their
sorts are globally reserved: the modularizer namespaces all generated
sorts, so no collision is possible, and language registration re-asserts
disjointness.
"""

from __future__ import annotations

from .terms import Atom, ListOf, NodeKind, Signature, Term, build_list, iter_subterms

# Reserved generic sorts
IDENT_L = Atom("IdentL")
LHS_L = Atom("LhsL")
RHS_L = Atom("RhsL")
ASSIGN_OP_L = Atom("AssignOpL")
ASSIGN_L = Atom("AssignL")
BLOCK_L = Atom("BlockL")
BLOCK_ITEM_L = Atom("BlockItemL")
BLOCK_END_L = Atom("BlockEndL")
MULTI_DECL_L = Atom("MultiLocalVarDeclL")
SINGLE_DECL_L = Atom("SingleLocalVarDeclL")
LOCAL_VAR_INIT_L = Atom("LocalVarInitL")
OPT_LOCAL_VAR_INIT_L = Atom("OptLocalVarInitL")
COMMON_ATTRS_L = Atom("MultiLocalVarDeclCommonAttrsL")
DECL_ATTRS_L = Atom("LocalVarDeclAttrsL")
BINDER_L = Atom("VarDeclBinderL")

RESERVED_SORTS = frozenset(
    {
        IDENT_L,
        LHS_L,
        RHS_L,
        ASSIGN_OP_L,
        ASSIGN_L,
        BLOCK_L,
        BLOCK_ITEM_L,
        BLOCK_END_L,
        MULTI_DECL_L,
        SINGLE_DECL_L,
        LOCAL_VAR_INIT_L,
        OPT_LOCAL_VAR_INIT_L,
        COMMON_ATTRS_L,
        DECL_ATTRS_L,
        BINDER_L,
    }
)

# Generic node kinds
IDENT = NodeKind("Ident", ("String",), (), IDENT_L)
ASSIGN = NodeKind("Assign", (), (LHS_L, ASSIGN_OP_L, RHS_L), ASSIGN_L)
ASSIGN_OP_EQUALS = NodeKind("AssignOpEquals", (), (), ASSIGN_OP_L)
BLOCK = NodeKind("Block", (), (ListOf(BLOCK_ITEM_L), BLOCK_END_L), BLOCK_L)
EMPTY_BLOCK_END = NodeKind("EmptyBlockEnd", (), (), BLOCK_END_L)
MULTI_DECL = NodeKind(
    "MultiLocalVarDecl", (), (COMMON_ATTRS_L, ListOf(SINGLE_DECL_L)), MULTI_DECL_L
)
SINGLE_DECL = NodeKind(
    "SingleLocalVarDecl", (), (DECL_ATTRS_L, BINDER_L, OPT_LOCAL_VAR_INIT_L), SINGLE_DECL_L
)
JUST_INIT = NodeKind("JustLocalVarInit", (), (LOCAL_VAR_INIT_L,), OPT_LOCAL_VAR_INIT_L)
NO_INIT = NodeKind("NoLocalVarInit", (), (), OPT_LOCAL_VAR_INIT_L)
EMPTY_COMMON_ATTRS = NodeKind("EmptyCommonAttrs", (), (), COMMON_ATTRS_L)
EMPTY_DECL_ATTRS = NodeKind("EmptyDeclAttrs", (), (), DECL_ATTRS_L)

# Sort injection nodes between generic sorts, shared by every language.
IDENT_IS_BINDER = NodeKind("IdentIsVarDeclBinder", (), (IDENT_L,), BINDER_L)
MULTI_DECL_IS_ITEM = NodeKind(
    "MultiLocalVarDeclIsBlockItem", (), (MULTI_DECL_L,), BLOCK_ITEM_L
)

GENERIC_KINDS = (
    IDENT,
    ASSIGN,
    ASSIGN_OP_EQUALS,
    BLOCK,
    EMPTY_BLOCK_END,
    MULTI_DECL,
    SINGLE_DECL,
    JUST_INIT,
    NO_INIT,
    EMPTY_COMMON_ATTRS,
    EMPTY_DECL_ATTRS,
)


def generic_signature() -> Signature:
    return Signature("Generic", GENERIC_KINDS)


def ident(name: str) -> Term:
    return IDENT.build(name)


def assign(lhs: Term, rhs: Term) -> Term:
    return ASSIGN.build(lhs, ASSIGN_OP_EQUALS.build(), rhs)


def opt_init(init: Term | None) -> Term:
    """The initializer option of a LocalVarInitL term `init`, or the empty
    option for None."""
    return NO_INIT.build() if init is None else JUST_INIT.build(init)


def single_decl(binder: Term, opt: Term) -> Term:
    """One binder without attributes; `opt` is its initializer option."""
    return SINGLE_DECL.build(EMPTY_DECL_ATTRS.build(), binder, opt)


def multi_decl(singles: list[Term], attrs: Term | None = None) -> Term:
    """A declaration of `singles` sharing `attrs` (none by default)."""
    if attrs is None:
        attrs = EMPTY_COMMON_ATTRS.build()
    return MULTI_DECL.build(attrs, build_list(SINGLE_DECL_L, singles))


class LanguageOps:
    """The two syntactic operations each frontend supplies for hoisting.

    A frontend's object has these attributes; it need not derive from
    this class, which documents them.
    """

    # Whether a declaration's binder is in scope inside its own
    # initializer.  False means hoisting a self-referencing initializer
    # would change what the reference resolves to.
    binder_in_scope_in_init: bool

    def var_init_to_rhs(self, common_attrs: Term, decl_attrs: Term, init: Term) -> Term:
        """Convert an initializer (LocalVarInitL) to an RhsL term."""

    def var_decl_binder_to_lhs(self, binder: Term) -> Term:
        """Convert a binder (VarDeclBinderL) to an LhsL term naming it."""


def ident_names(term: Term) -> list[str]:
    """The names of the generic identifiers in a term, in order: the names
    a binder binds, or the names an expression reads."""
    return [t.payload_values[0] for t in iter_subterms(term) if t.kind is IDENT]


def assert_reserved_disjoint(language_sorts) -> None:
    """Registration check: modularizer-generated sorts never collide with
    the reserved generic ones."""
    clashes = set(language_sorts) & RESERVED_SORTS
    if clashes:
        raise ValueError(f"language sorts collide with reserved sorts: {clashes}")
