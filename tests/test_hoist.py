"""Declaration hoisting, elementary and shadow-aware variants."""

import re
from types import SimpleNamespace

import pytest

from helpers import replace_language, unpruned_transform_bottom_up
from srctrans.fragments import BLOCK
from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language
from srctrans.passes import hoist as hoist_module
from srctrans.passes.hoist import (
    RequirementMissing,
    elementary_hoist,
    hoist,
    postcondition_violations,
)
from srctrans.terms import iter_subterms
from srctrans.traversal import transform_bottom_up

HOIST_INPUT = """\
int f(int a, int b, int s) {
  int t1 = 0, t2 = 1;
  if (s) {
    int r1 = t1 * a + t2 * b;
    return r1;
  }
  int r2 = t2 * a + t1 * b;
  return r2;
}
"""

HOIST_EXPECTED = """\
int f(int a, int b, int s) {
  int t1, t2; int r2;
  t1 = 0; t2 = 1;
  if (s) {
    int r1;
    r1 = t1 * a + t2 * b;
    return r1;
  }
  r2 = t2 * a + t1 * b;
  return r2;
}
"""


def tokens(text):
    return re.findall(r"\w+|[^\s\w]", text)


def apply(lang, text, fn):
    term = fn(lang.decompose(lang.parse(text)), lang)
    return lang.pretty(lang.recompose(term))


def test_elementary_hoist_golden_tokens():
    lang = get_language("minic")
    out = apply(lang, HOIST_INPUT, elementary_hoist)
    assert tokens(out) == tokens(HOIST_EXPECTED)


def test_hoist_preserves_statement_order():
    lang = get_language("minic")
    out = apply(
        lang,
        "int main() { print(1); int a = 2; print(a); int b = 3; return b; }",
        hoist,
    )
    body = tokens(out)
    # all declarations first, then the statements in source order
    assert body.index("a") < body.index("print")
    assigns = [m for m in re.findall(r"(\w+) =", out)]
    assert assigns == ["a", "b"]
    prints = [m for m in re.findall(r"print\((\w+)\)", out)]
    assert prints == ["1", "a"]


def test_hoist_skips_shadow_sensitive_decl():
    lang = get_language("minic")
    text = "int main() { int x = 5; { print(x); int x = 1; print(x); } return x; }"
    out = apply(lang, text, hoist)
    # the inner declaration would capture the earlier read, so it stays put
    inner = out[out.index("{", out.index("{") + 1):]
    assert "int x = 1;" in inner
    assert lang.run(lang.parse(out)).events == lang.run(lang.parse(text)).events


def test_elementary_hoist_ignores_capture():
    lang = get_language("minic")
    text = "int main() { int x = 5; { print(x); int x = 1; } return x; }"
    out = apply(lang, text, elementary_hoist)
    # the elementary variant hoists anyway and changes the printed value
    assert lang.run(lang.parse(out)).events == (("print", "0"), ("return", "5"))


@pytest.mark.parametrize("lname", ("minic", "minijs", "minilua"))
def test_postcondition_clean_on_outputs(lname):
    lang = get_language(lname)
    for seed in range(20):
        text = gen_program(lname, GenConfig(seed=seed, shadowing=True))
        term = hoist(lang.decompose(lang.parse(text)), lang)
        assert postcondition_violations(term, lang) == []


@pytest.mark.parametrize("shadowing", [False, True])
@pytest.mark.parametrize("lname", ("minic", "minijs", "minilua"))
def test_pruned_walk_matches_unpruned(lname, shadowing, monkeypatch):
    """hoist's walk skips the sorts that cannot hold a Block.  On
    generated programs both variants give what they give through a walk
    that visits every node, and the rewrite still sees every Block."""
    lang = get_language(lname)
    blocks = []

    def counting(r, t, within=None):
        def seen(node):
            if node.kind is BLOCK:
                blocks.append(node)
            return r(node)

        return transform_bottom_up(seen, t, within)

    for seed in range(40):
        term = lang.decompose(lang.parse(gen_program(lname, GenConfig(seed, shadowing=shadowing))))
        n_blocks = sum(t.kind is BLOCK for t in iter_subterms(term))
        for fn in (elementary_hoist, hoist):
            monkeypatch.setattr(hoist_module, "transform_bottom_up", unpruned_transform_bottom_up)
            want = fn(term, lang)
            monkeypatch.setattr(hoist_module, "transform_bottom_up", counting)
            blocks.clear()
            assert fn(term, lang) == want, (seed, fn.__name__)
            assert len(blocks) == n_blocks


def test_postcondition_flags_unhoisted_input():
    lang = get_language("minic")
    term = lang.decompose(
        lang.parse("int main() { print(1); int y = 2; return y; }")
    )
    problems = postcondition_violations(term, lang)
    assert any("after statement" in p for p in problems)
    assert any("keeps initializer" in p for p in problems)


def test_both_variants_preserve_semantics_without_shadowing():
    for lname in ("minic", "minijs", "minilua"):
        lang = get_language(lname)
        for seed in range(15):
            text = gen_program(lname, GenConfig(seed=seed))
            want = lang.run(lang.parse(text)).events
            for fn in (elementary_hoist, hoist):
                assert lang.run(lang.parse(apply(lang, text, fn))).events == want


def test_requirements_checked():
    lang = get_language("minic")
    crippled = replace_language(
        lang, ops=SimpleNamespace(binder_in_scope_in_init=True)
    )
    term = lang.decompose(lang.parse("int main() { return 0; }"))
    with pytest.raises(RequirementMissing, match="var_init_to_rhs"):
        elementary_hoist(term, crippled)


def test_minilua_parallel_decl_split():
    lang = get_language("minilua")
    text = "local a, b = 1, 2\nprint(a + b)\n"
    out = apply(lang, text, hoist)
    assert "local a, b\n" in out
    # the initializer becomes one parallel assignment, keeping the
    # all-values-before-any-binding evaluation order
    assert "a, b = 1, 2" in out
    assert lang.run(lang.parse(out)).events == (("print", "3"), ("return", "nil"))


def test_minilua_self_reference_preserved():
    lang = get_language("minilua")
    text = "local x = 3\ndo\n  local x = x\n  print(x)\nend\nprint(x)\n"
    out = apply(lang, text, hoist)
    # `local x = x` reads the outer binding, so it must not be rewritten
    # into `local x` + `x = x` (which would read the fresh nil binding)
    assert "local x = x" in out
    assert lang.run(lang.parse(out)).events == lang.run(lang.parse(text)).events
