"""Language registration: everything a frontend contributes to the toolkit.

A LanguageDef bundles the surface schema, the modularized and the
genericized signatures, the injection table, the syntactic operations, and
structural adapters that let transformations inspect statements without
knowing the concrete grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Callable, Optional, Protocol

from ..fragments import (
    BLOCK,
    EMPTY_BLOCK_END,
    LanguageOps,
    assert_reserved_disjoint,
)
from ..injections import InjectionTable
from ..schema import GenericValue, ModularizedLanguage, Schema
from ..terms import Signature, Term, build_list, extract_list, mk_term
from ..traversal import Path


class UnrepresentableTerm(Exception):
    """A genericized term with no concrete-syntax counterpart."""


# ---------------------------------------------------------------------------
# Structural views of block items.  Adapters classify each item into one of
# these so control-flow analysis and rewriting stay language independent.
# Sub-blocks are always exposed as generic Block terms; rebuild callbacks
# fold edited parts back into an item of the original sort.


@dataclass(frozen=True)
class PlainView:
    """No control flow and no nested blocks."""


@dataclass(frozen=True)
class BreakView:
    pass


@dataclass(frozen=True)
class ContinueView:
    pass


@dataclass(frozen=True)
class ReturnView:
    value: Optional[Term]
    rebuild: Callable[[Optional[Term]], Term]


@dataclass(frozen=True)
class ExprStmtView:
    expr: Term
    rebuild: Callable[[Term], Term]


@dataclass(frozen=True)
class IfView:
    cond: Term
    then_block: Term
    else_block: Optional[Term]
    rebuild: Callable[[Term, Term, Optional[Term]], Term]


@dataclass(frozen=True)
class WhileView:
    cond: Term
    body: Term
    rebuild: Callable[[Term, Term], Term]


@dataclass(frozen=True)
class ForView:
    """C-style three-clause loop; absent clauses are None."""

    init: Optional[Term]
    cond: Optional[Term]
    step: Optional[Term]
    body: Term
    rebuild: Callable[
        [Optional[Term], Optional[Term], Optional[Term], Term], Term
    ]


@dataclass(frozen=True)
class ForNumView:
    """Counted loop over a fresh variable; bounds evaluated once."""

    var: str
    low: Term
    high: Term
    step: Optional[Term]
    body: Term
    rebuild: Callable[[Term, Term, Optional[Term], Term], Term]


@dataclass(frozen=True)
class AssignView:
    """A statement-level (possibly parallel) assignment."""

    targets: tuple[Term, ...]
    sources: tuple[Term, ...]
    rebuild: Callable[[tuple[Term, ...], tuple[Term, ...]], Term]


@dataclass(frozen=True)
class NestedBlockView:
    """A bare block statement."""

    block: Term
    rebuild: Callable[[Term], Term]


ItemView = (
    PlainView
    | BreakView
    | ContinueView
    | ReturnView
    | ExprStmtView
    | AssignView
    | IfView
    | WhileView
    | ForView
    | ForNumView
    | NestedBlockView
)


class TacOps(Protocol):
    """Expression-level hooks for three-address-code conversion.

    Languages without the pass leave the LanguageDef slot as None.
    """

    def classify(self, expr: Term) -> tuple:
        """One of ("atomic",), ("shortcircuit", is_and, left, right),
        ("assign", target, source), or ("operands", parts, rebuild) where
        rebuild maps replacement parts back to an expression."""

    def make_var(self, name: str) -> Term: ...

    def make_not(self, expr: Term) -> Term: ...

    def make_decl_item(self, name: str, init: Optional[Term]) -> Term: ...

    def make_assign_item(self, target: Term, source: Term) -> Term: ...

    def make_if_item(self, cond: Term, then_items: list, else_items) -> Term: ...

    def init_exprs(self, init: Term) -> tuple:
        """(expressions, rebuild) for a declaration initializer term."""


class Adapter(Protocol):
    """Structural hooks transformations need from a frontend."""

    def item_view(self, item: Term) -> ItemView: ...

    def body_paths(self, root: Term) -> list[Path]:
        """Paths to each routine's generic body Block, in source order."""

    def make_cov_marker(self, index: int) -> Term:
        """A block item recording that coverage cell `index` was reached."""


@dataclass(frozen=True)
class LanguageDef:
    name: str
    file_ext: str
    schema: Schema
    modularized: ModularizedLanguage
    ips: Signature
    injections: InjectionTable
    ops: LanguageOps
    adapter: Adapter
    parse: Callable[[str], GenericValue]
    pretty: Callable[[GenericValue], str]
    trans_ips: Callable[[Term], Term]
    untrans_ips: Callable[[Term], Term]
    tac: Optional[TacOps] = None
    run: Optional[Callable] = None
    item_walk: Optional[Callable] = None

    def __post_init__(self):
        assert_reserved_disjoint(dict(self.modularized.sort_of).values())

    def decompose(self, ast: GenericValue) -> Term:
        from ..schema import to_modular

        return self.trans_ips(to_modular(self.modularized, ast))

    def recompose(self, term: Term) -> GenericValue:
        from ..schema import from_modular

        return from_modular(self.modularized, self.untrans_ips(term))


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
# Translator scaffolding shared by the per-language trans/untrans pairs.


def make_translator(special: dict[str, Callable]) -> Callable[[Term], Term]:
    """Kind-directed recursion; unlisted kinds rebuild themselves.

    Each special handler receives the node and the translator itself so it
    can recurse into children.  A node of an unlisted kind whose children
    all come back unchanged is returned as is, not rebuilt.
    """

    def tr(t: Term) -> Term:
        handler = special.get(t.kind.name)
        if handler is not None:
            return handler(t, tr)
        children = [tr(c) for c in t.children]
        if all(map(is_, children, t.children)):
            return t
        return mk_term(t.kind, t.payload_values, children)

    return tr


def generic_block(items: list[Term]) -> Term:
    from ..fragments import BLOCK_ITEM_L

    return mk_term(
        BLOCK, (), (build_list(BLOCK_ITEM_L, items), mk_term(EMPTY_BLOCK_END))
    )


def block_items(block: Term) -> list[Term]:
    if block.kind != BLOCK:
        raise UnrepresentableTerm(f"expected a generic block, got {block.kind.name}")
    return extract_list(block.children[0])


def with_block_items(block: Term, items: list[Term]) -> Term:
    """block with its items replaced; block itself if each item is the same
    object as before."""
    from ..fragments import BLOCK_ITEM_L

    old = block_items(block)
    if len(old) == len(items) and all(map(is_, items, old)):
        return block
    return mk_term(
        BLOCK, (), (build_list(BLOCK_ITEM_L, items), block.children[1])
    )
