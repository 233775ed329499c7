"""Three-address code: bind nested computations to fresh temporaries.

After the pass every operator and call argument is atomic (a literal or a
variable), and short-circuit operators are lowered to temp-and-branch form
preserving evaluation counts.  A loop condition that needs prelude items
is kept in a temporary, computed before the loop and recomputed on the
loop's back edges (`flow.insert_at_back_edges`: at body end and before
each continue), where a for loop's step also moves.  Runs on languages
with untyped declarations (MiniJS, MiniLua).
"""

from __future__ import annotations

from ..flow import insert_at_back_edges, rewrite_bodies
from ..fragments import (
    BLOCK_ITEM_L,
    MULTI_DECL_IS_ITEM,
    NameSets,
    multi_decl,
)
from ..langs.base import (
    AssignView,
    ExprStmtView,
    ForNumView,
    ForView,
    IfView,
    LanguageDef,
    NestedBlockView,
    ReturnView,
    WhileView,
    block_items,
    with_block_items,
)
from ..terms import Term, gc_paused, mk_term
from .hoist import RequirementMissing


TEMP_PREFIX = "__t"


class _Names:
    """Fresh `__t<n>` names per routine, skipping names already in use."""

    def __init__(self, used: set[str]):
        self.used = set(used)
        self.counter = 0
        self.minted: set[str] = set()

    def fresh(self) -> str:
        while True:
            name = f"{TEMP_PREFIX}{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                self.minted.add(name)
                return name


class _BodyPass:
    def __init__(self, lang: LanguageDef, names: _Names, name_sets: NameSets):
        self.lang = lang
        self.ops = lang.tac
        self.names = names
        self.name_sets = name_sets

    # -- expression flattening ---------------------------------------------

    def _is_safe_atom(self, e: Term) -> bool:
        """Atoms whose value cannot change under later side effects."""
        if self.ops.is_effect_free(e):
            return True
        names = self.name_sets(e)
        return bool(names) and names <= self.names.minted

    def flatten_top(self, e: Term) -> tuple[list[Term], Term]:
        """Prelude items plus an equivalent expression whose operands are
        all atomic (the expression itself may apply one operator/call)."""
        cls = self.ops.classify(e)
        tag = cls[0]
        if tag == "atomic":
            return [], e
        if tag == "operands":
            _, parts, rebuild = cls
            items, new_parts = self.hoist_operands(parts)
            return items, rebuild(new_parts)
        if tag == "shortcircuit":
            _, is_and, left, right = cls
            return self.lower_shortcircuit(is_and, left, right)
        if tag == "assign":
            _, target, source = cls
            return self.flatten_assign(target, source, want_value=True)
        raise RequirementMissing(f"tac: unknown classification {tag!r}")

    def to_atom(self, e: Term, force_temp: bool) -> tuple[list[Term], Term]:
        items, flat = self.flatten_top(e)
        if self.ops.is_atomic(flat):
            if not force_temp or self._is_safe_atom(flat):
                return items, flat
        name = self.names.fresh()
        items.append(self.ops.make_decl_item(name, flat))
        return items, self.ops.make_var(name)

    def hoist_operands(self, parts: list[Term]) -> tuple[list[Term], list[Term]]:
        """Bind every operand up to the last non-atomic one to a temp,
        leaving effect-free literals in place."""
        last = -1
        for i, p in enumerate(parts):
            if not self.ops.is_atomic(p):
                last = i
        if last < 0:
            return [], list(parts)
        items: list[Term] = []
        out: list[Term] = []
        for i, p in enumerate(parts):
            if i > last or self.ops.is_effect_free(p):
                out.append(p)
                continue
            sub, atom = self.to_atom(p, force_temp=True)
            items.extend(sub)
            out.append(atom)
        return items, out

    def lower_shortcircuit(self, is_and: bool, left: Term, right: Term):
        p_l, l_flat = self.flatten_top(left)
        name = self.names.fresh()
        items = p_l + [self.ops.make_decl_item(name, l_flat)]
        p_r, r_flat = self.flatten_top(right)
        guard = self.ops.make_var(name)
        if not is_and:
            guard = self.ops.make_not(guard)
        then = p_r + [self.ops.make_assign_item(self.ops.make_var(name), r_flat)]
        items.append(self.ops.make_if_item(guard, then))
        return items, self.ops.make_var(name)

    def flatten_assign(self, target: Term, source: Term, want_value: bool):
        items, s_flat = self.flatten_top(source)
        if want_value and not (
            self.ops.is_atomic(s_flat) and self._is_safe_atom(s_flat)
        ):
            name = self.names.fresh()
            items.append(self.ops.make_decl_item(name, s_flat))
            s_flat = self.ops.make_var(name)
        sub, target2 = self.flatten_target(target)
        items.extend(sub)
        items.append(self.ops.make_assign_item(target2, s_flat))
        return items, (s_flat if want_value else None)

    def flatten_target(self, target: Term) -> tuple[list[Term], Term]:
        """Make a store target's subexpressions atomic without treating
        the target itself as a value."""
        cls = self.ops.classify(target)
        if cls[0] != "operands":
            return [], target
        _, parts, rebuild = cls
        items, new_parts = self.hoist_operands(parts)
        return items, rebuild(new_parts)

    # -- statements --------------------------------------------------------

    def walk_block(self, block: Term) -> Term:
        out: list[Term] = []
        for item in block_items(block):
            out.extend(self.walk_item(item))
        return with_block_items(block, out)

    def walk_item(self, item: Term) -> list[Term]:
        if item.kind == MULTI_DECL_IS_ITEM:
            return self.walk_decl(item.children[0])
        view = self.lang.adapter.item_view(item)
        if isinstance(view, ExprStmtView):
            cls = self.ops.classify(view.expr)
            if cls[0] == "assign":
                items, _ = self.flatten_assign(cls[1], cls[2], want_value=False)
                return items
            items, flat = self.flatten_top(view.expr)
            return items + [view.build(flat)]
        if isinstance(view, AssignView):
            return self.walk_parallel_assign(view)
        if isinstance(view, ReturnView):
            if view.value is None:
                return [item]
            items, flat = self.flatten_top(view.value)
            return items + [view.build(flat)]
        if isinstance(view, IfView):
            items, c_flat = self.flatten_top(view.cond)
            walked = {}
            for slot, sub in view.blocks():
                walked[slot] = self.walk_block(sub)
            return items + [view.rebuild(cond=c_flat, **walked)]
        if isinstance(view, WhileView):
            return self.walk_while(view)
        if isinstance(view, ForView):
            return self.walk_for(view)
        if isinstance(view, ForNumView):
            return self.walk_for_num(view)
        if isinstance(view, NestedBlockView):
            return [view.build(self.walk_block(view.block))]
        return [item]

    def walk_decl(self, decl: Term) -> list[Term]:
        attrs, singles = decl.children
        preludes: list[list[Term]] = []
        rebuilt: list[Term] = []
        for single in singles.children:
            lattrs, binder, opt = single.children
            if opt.kind.name != "JustLocalVarInit":
                preludes.append([])
                rebuilt.append(single)
                continue
            exprs, rebuild_init = self.ops.init_exprs(opt.children[0])
            items: list[Term] = []
            new_exprs: list[Term] = []
            if len(exprs) == 1:
                sub, flat = self.flatten_top(exprs[0])
                items.extend(sub)
                new_exprs.append(flat)
            else:
                # parallel binding: values are all computed before any name
                # is bound, so non-literal sources go through temps
                for e in exprs:
                    if self.ops.is_effect_free(e):
                        new_exprs.append(e)
                        continue
                    sub, atom = self.to_atom(e, force_temp=True)
                    items.extend(sub)
                    new_exprs.append(atom)
            new_opt = mk_term(opt.kind, (), (rebuild_init(new_exprs),))
            preludes.append(items)
            rebuilt.append(mk_term(single.kind, (), (lattrs, binder, new_opt)))
        if not any(preludes):
            new_decl = multi_decl(rebuilt, attrs)
            return [self.lang.injections.inj(new_decl, BLOCK_ITEM_L)]
        # a prelude may read earlier binders, so split one decl per binder
        out: list[Term] = []
        for p, single in zip(preludes, rebuilt):
            out.extend(p)
            new_decl = multi_decl([single], attrs)
            out.append(self.lang.injections.inj(new_decl, BLOCK_ITEM_L))
        return out

    def walk_parallel_assign(self, view: AssignView) -> list[Term]:
        if len(view.targets) == 1 and len(view.sources) == 1:
            items, _ = self.flatten_assign(
                view.targets[0], view.sources[0], want_value=False
            )
            return items
        items: list[Term] = []
        sources: list[Term] = []
        for e in view.sources:
            if self.ops.is_effect_free(e):
                sources.append(e)
                continue
            sub, atom = self.to_atom(e, force_temp=True)
            items.extend(sub)
            sources.append(atom)
        targets: list[Term] = []
        for t in view.targets:
            sub, t2 = self.flatten_target(t)
            items.extend(sub)
            targets.append(t2)
        return items + [view.build(tuple(targets), tuple(sources))]

    # -- loops -------------------------------------------------------------

    def step_items(self, step: Term) -> list[Term]:
        cls = self.ops.classify(step)
        if cls[0] == "assign":
            items, _ = self.flatten_assign(cls[1], cls[2], want_value=False)
            return items
        items, flat = self.flatten_top(step)
        if self.ops.is_atomic(flat):
            return items  # residual value is dead
        name = self.names.fresh()
        return items + [self.ops.make_decl_item(name, flat)]

    def guard_loop(self, cond, rebuild) -> list[Term]:
        """The loop rebuild(c) for c the flattened cond.  A cond that needs
        prelude items is kept in a temp, computed before the loop and
        recomputed on the loop's back edges."""
        p, c_flat = self.flatten_top(cond) if cond is not None else ([], None)
        if not p:
            return [rebuild(c_flat)]
        name = self.names.fresh()
        prelude = p + [self.ops.make_assign_item(self.ops.make_var(name), c_flat)]
        loop = rebuild(self.ops.make_var(name))
        return [
            self.ops.make_decl_item(name, None),
            *prelude,
            insert_at_back_edges(loop, prelude, self.lang),
        ]

    def walk_while(self, view: WhileView) -> list[Term]:
        body2 = self.walk_block(view.body)
        return self.guard_loop(view.cond, lambda c: view.build(c, body2))

    def walk_for(self, view: ForView) -> list[Term]:
        """The init runs once before the loop, so it is hoisted out; the
        step runs on the back edges, so it moves there, ahead of any
        condition recomputation."""
        body2 = self.walk_block(view.body)
        out = self.step_items(view.init) if view.init is not None else []
        step = self.step_items(view.step) if view.step is not None else []

        def rebuild(c: Term) -> Term:
            loop = view.build(None, c, None, body2)
            return insert_at_back_edges(loop, step, self.lang) if step else loop

        return out + self.guard_loop(view.cond, rebuild)

    def walk_for_num(self, view: ForNumView) -> list[Term]:
        body2 = self.walk_block(view.body)
        out: list[Term] = []
        bounds = []
        for e in (view.low, view.high, view.step):
            if e is None:
                bounds.append(None)
                continue
            p, flat = self.flatten_top(e)
            out.extend(p)
            bounds.append(flat)
        out.append(view.build(bounds[0], bounds[1], bounds[2], body2))
        return out


@gc_paused
def tac(term: Term, lang: LanguageDef) -> Term:
    """Flatten nested computations body by body."""
    if lang.tac is None:
        raise RequirementMissing(
            f"tac on {lang.name}: no untyped-declaration hooks "
            "(declaring temporaries would need type inference)"
        )
    name_sets = NameSets()
    return rewrite_bodies(
        term, lang,
        lambda b, body, before: _BodyPass(
            lang, _Names(name_sets(before)), name_sets
        ).walk_block(body),
    )
