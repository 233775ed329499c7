"""Three-address flattening: temporaries, short-circuit, loop conditions."""

import pytest

from helpers import atomization_violations
from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language
from srctrans.passes.hoist import RequirementMissing
from srctrans.passes.tac import tac

UNTYPED = ("minijs", "minilua")


def apply(lang, text):
    return lang.pretty(lang.recompose(tac(lang.decompose(lang.parse(text)), lang)))


def test_nested_addition_golden():
    lang = get_language("minijs")
    out = apply(lang, "function main() { x = 1 + 1 + 1; }")
    assert out == "function main() {\n  var __t0 = 1 + 1;\n  x = __t0 + 1;\n}\n"


def test_nested_minilua_functions_golden():
    # The chunk's rewrite moves every function body and the rewrite of
    # `outer` moves `inner`; each body gets its own temporaries.
    lang = get_language("minilua")
    text = (
        "function outer(a)\n"
        "  local x = a * 2 + a\n"
        "  function inner(b)\n"
        "    return b * 2 + b * 3\n"
        "  end\n"
        "  return inner(x) + a * 2\n"
        "end\n"
        "function other(d)\n"
        "  return d * d + d * 2\n"
        "end\n"
        "y = outer(1) + other(2) * 3\n"
    )
    assert apply(lang, text) == (
        "function outer(a)\n"
        "  local __t0 = a * 2\n"
        "  local x = __t0 + a\n"
        "  function inner(b)\n"
        "    local __t0 = b * 2\n"
        "    local __t1 = b * 3\n"
        "    return __t0 + __t1\n"
        "  end\n"
        "  local __t1 = inner(x)\n"
        "  local __t2 = a * 2\n"
        "  return __t1 + __t2\n"
        "end\n"
        "function other(d)\n"
        "  local __t0 = d * d\n"
        "  local __t1 = d * 2\n"
        "  return __t0 + __t1\n"
        "end\n"
        "local __t0 = outer(1)\n"
        "local __t1 = other(2)\n"
        "local __t2 = __t1 * 3\n"
        "y = __t0 + __t2\n"
    )


def test_atomic_statement_unchanged():
    lang = get_language("minijs")
    text = "function main() {\n  x = a;\n  return x;\n}\n"
    assert apply(lang, text) == text


def test_scan_flags_unflattened_input():
    # oracle sensitivity: the scan must not be vacuously empty
    lang = get_language("minijs")
    term = lang.decompose(lang.parse("function main() { x = 1 + 1 + 1; }"))
    assert [k for k, _ in atomization_violations(lang, term)] == [
        "compound-operand"
    ]
    term = lang.decompose(lang.parse("function main() { x = a && b; }"))
    assert [k for k, _ in atomization_violations(lang, term)] == ["shortcircuit"]


@pytest.mark.parametrize("lname", UNTYPED)
def test_atomic_operand_scan_on_generated(lname):
    lang = get_language(lname)
    for seed in range(50):
        text = gen_program(lname, GenConfig(seed=seed))
        term = tac(lang.decompose(lang.parse(text)), lang)
        assert atomization_violations(lang, term) == []


@pytest.mark.parametrize("lname", UNTYPED)
def test_output_is_atomization_fixed_point(lname):
    # fixed point of the scan, not of the syntax: a rerun may rename
    # temporaries but can never reintroduce a compound operand
    lang = get_language(lname)
    for seed in range(10):
        text = gen_program(lname, GenConfig(seed=seed))
        once = apply(lang, text)
        twice = apply(lang, once)
        assert atomization_violations(lang, lang.decompose(lang.parse(twice))) == []
        assert lang.run(lang.parse(twice)).events == lang.run(lang.parse(text)).events


def test_short_circuit_preserves_call_counts():
    lang = get_language("minijs")
    # ext0's mock result cycles -2, 0, true, so both arms get exercised
    text = (
        "function f(x) { print(x); return x; }\n"
        "function main() { var i = 0;"
        " while (i < 6) { print(f(i) && f(i + 10) || f(i + 20));"
        " i = i + 1; } return 0; }"
    )
    before = lang.run(lang.parse(text)).events
    after = lang.run(lang.parse(apply(lang, text))).events
    calls = lambda ev: [e for e in ev if e[0] == "call"]
    assert calls(after) == calls(before)
    assert before == after


def test_false_left_operand_skips_right_call():
    lang = get_language("minijs")
    text = (
        "function g() { print(99); return 1; }\n"
        "function main() { return false && g(); }"
    )
    out = apply(lang, text)
    events = lang.run(lang.parse(out)).events
    assert ("print", "99") not in events
    assert events == lang.run(lang.parse(text)).events


def test_loop_condition_recomputed_at_three_sites():
    lang = get_language("minijs")
    text = (
        "function main() {\n"
        "  var i = 0;\n"
        "  for (i = 0; i < f(3) + 1; i = i + 1) {\n"
        "    if (i == 1) {\n"
        "      continue;\n"
        "    }\n"
        "    print(i);\n"
        "  }\n"
        "  return i;\n"
        "}\n"
    )
    out = apply(lang, text)
    lines = [ln.strip() for ln in out.splitlines()]
    # the condition now lives in a temp and the loop header only reads it
    assert "for (; __t3; ) {" in lines
    # three recomputation sites: pre-loop, before the continue, body end
    assert lines.count("__t3 = __t0 < __t2;") == 3
    idx = lines.index("continue;")
    # before each continue the moved step runs, then the condition prelude
    assert lines[idx - 1] == "__t3 = __t0 < __t2;"
    assert "i = i + 1;" in lines[idx - 5]
    assert lang.run(lang.parse(out)).events == lang.run(lang.parse(text)).events


def test_while_condition_recomputed():
    lang = get_language("minijs")
    text = (
        "function main() { var i = 0;"
        " while (f(i) < 2) { i = i + 1; } return i; }"
    )
    out = apply(lang, text)
    lines = [ln.strip() for ln in out.splitlines()]
    recomputes = [ln for ln in lines if ln.startswith("__t1 = ")]
    assert len(recomputes) == 2  # pre-loop and body end
    assert any(ln.startswith("while (__t1)") for ln in lines)
    assert lang.run(lang.parse(out)).events == lang.run(lang.parse(text)).events


def test_minilua_parallel_assign_sources_through_temps():
    lang = get_language("minilua")
    text = "local a, b = 1, 2\na, b = a + b, a\nprint(a)\nprint(b)\n"
    out = apply(lang, text)
    assert lang.run(lang.parse(out)).events == lang.run(lang.parse(text)).events
    assert atomization_violations(
        lang, lang.decompose(lang.parse(out))
    ) == []


@pytest.mark.parametrize("lname", UNTYPED)
def test_fresh_names_disjoint(lname):
    lang = get_language(lname)
    for seed in range(10):
        text = gen_program(lname, GenConfig(seed=seed))
        assert "__t" not in text
        out = apply(lang, text)
        assert lang.run(lang.parse(out)).events == lang.run(lang.parse(text)).events


def test_typed_language_rejected():
    lang = get_language("minic")
    term = lang.decompose(lang.parse("int main() { return 0; }"))
    with pytest.raises(RequirementMissing, match="type inference"):
        tac(term, lang)
