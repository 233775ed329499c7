"""Coverage instrumentation: one marker per basic block."""

import re

import pytest

from helpers import COUNTF, executed_blocks_oracle
from srctrans.difftest import PASSES, diff_one
from srctrans.flow import basic_blocks, build_cfg
from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language
from srctrans.passes.testcov import testcov as cov_pass

ALL = ("minic", "minijs", "minilua")


def instrument(lang, text):
    term, n = cov_pass(lang.decompose(lang.parse(text)), lang)
    return lang.pretty(lang.recompose(term)), n


def marker_ids(text):
    return [int(m) for m in re.findall(r"cov\[(\d+)\] = true", text)]


@pytest.mark.parametrize("lname", ALL)
def test_countf_marker_placement(lname):
    lang = get_language(lname)
    out, n = instrument(lang, COUNTF[lname])
    assert n == 5
    assert marker_ids(out) == [0, 1, 2, 3, 4]
    lines = [ln.strip() for ln in out.splitlines()]

    def line_of(pat):
        return next(i for i, ln in enumerate(lines) if pat in ln)

    # 0: routine entry, before the first declaration
    assert line_of("cov[0]") < line_of("count = 0")
    # 1: top of the loop body, before the branch
    assert line_of("cov[1]") == line_of("if") - 1
    # 2: then arm, before the increment; 3: else arm, before the print
    assert line_of("cov[2]") == line_of("count = count + 1") - 1
    assert line_of("cov[3]") == line_of("print(i)") - 1
    # 4: after the loop
    tail = "return count" if lname != "minilua" else "print(count)"
    assert line_of("cov[4]") == line_of(tail) - 1


@pytest.mark.parametrize("lname", ALL)
def test_countf_executed_blocks(lname):
    lang = get_language(lname)
    out, _ = instrument(lang, COUNTF[lname])
    run = lang.run(lang.parse(out))
    hit = {e[1] for e in run.events if e[0] == "cov"}
    # the break fires on the first true f(i), skipping the else arm once
    # the then arm runs, but both arms execute across iterations
    ast = lang.parse(COUNTF[lname])
    term = lang.decompose(ast)
    cfg = build_cfg(term, lang)
    blocks = basic_blocks(cfg)
    assert hit == executed_blocks_oracle(lang, ast, cfg, blocks)


@pytest.mark.parametrize("lname", ALL)
def test_coverage_matches_oracle_on_generated(lname):
    lang = get_language(lname)
    for seed in range(30):
        text = gen_program(lname, GenConfig(seed=seed))
        ast = lang.parse(text)
        term = lang.decompose(ast)
        cfg = build_cfg(term, lang)
        blocks = basic_blocks(cfg)
        out, n = instrument(lang, text)
        assert n == len(blocks)
        run = lang.run(lang.parse(out))
        hit = {e[1] for e in run.events if e[0] == "cov"}
        assert hit == executed_blocks_oracle(lang, ast, cfg, blocks)
        assert hit <= set(range(n))


@pytest.mark.parametrize("lname", ALL)
def test_erased_trace_unchanged(lname):
    lang = get_language(lname)
    for seed in range(30):
        text = gen_program(lname, GenConfig(seed=seed))
        before = lang.run(lang.parse(text))
        out, _ = instrument(lang, text)
        after = lang.run(lang.parse(out))
        assert after.erased().events == before.erased().events


def test_marker_count_equals_block_count():
    lang = get_language("minijs")
    out, n = instrument(lang, COUNTF["minijs"])
    assert out.count("cov[") == n


def test_minilua_nested_function_numbered_in_document_order():
    # g is nested in f and comes before h, so g's body is body 2 and h's
    # body 3; the run enters f and h but never calls g
    lang = get_language("minilua")
    text = (
        "function f() print(1) function g() print(2) end print(5) end"
        " function h() print(3) print(4) end f() h()"
    )
    ast = lang.parse(text)
    cfg = build_cfg(lang.decompose(ast), lang)
    blocks = basic_blocks(cfg)
    out, _ = instrument(lang, text)
    hit = {e[1] for e in lang.run(lang.parse(out)).events if e[0] == "cov"}
    assert hit == {0, 1, 3}
    assert executed_blocks_oracle(lang, ast, cfg, blocks) == hit


def test_minilua_sibling_and_nested_functions_golden():
    # The chunk is body 0, then each function body in document order; the
    # markers of every body land at once, whatever the bodies' nesting.
    lang = get_language("minilua")
    text = (
        "function outer(a)\n"
        "  local x = a\n"
        "  function inner(b)\n"
        "    if b > 0 then\n"
        "      return b\n"
        "    end\n"
        "    return 0\n"
        "  end\n"
        "  while x > 0 do\n"
        "    x = x - 1\n"
        "  end\n"
        "  return inner(x)\n"
        "end\n"
        "function other(d)\n"
        "  if d > 1 then\n"
        "    print(d)\n"
        "  else\n"
        "    print(0)\n"
        "  end\n"
        "  return d\n"
        "end\n"
        "print(outer(2) + other(3))\n"
    )
    assert instrument(lang, text) == (
        "TC.cov[0] = true\n"
        "function outer(a)\n"
        "  TC.cov[1] = true\n"
        "  local x = a\n"
        "  function inner(b)\n"
        "    TC.cov[4] = true\n"
        "    if b > 0 then\n"
        "      TC.cov[5] = true\n"
        "      return b\n"
        "    end\n"
        "    TC.cov[6] = true\n"
        "    return 0\n"
        "  end\n"
        "  while x > 0 do\n"
        "    TC.cov[2] = true\n"
        "    x = x - 1\n"
        "  end\n"
        "  TC.cov[3] = true\n"
        "  return inner(x)\n"
        "end\n"
        "function other(d)\n"
        "  TC.cov[7] = true\n"
        "  if d > 1 then\n"
        "    TC.cov[8] = true\n"
        "    print(d)\n"
        "  else\n"
        "    TC.cov[9] = true\n"
        "    print(0)\n"
        "  end\n"
        "  TC.cov[10] = true\n"
        "  return d\n"
        "end\n"
        "print(outer(2) + other(3))\n",
        11,
    )


def test_minilua_testcov_finds_the_bodies_in_two_scans(monkeypatch):
    # build_cfg scans for the bodies, and rewrite_bodies scans once more.
    # It rewrites the bodies last to first, so the markers put into the
    # chunk body do not move a function body still to be rewritten, and
    # no third scan is needed to find them again.
    lang = get_language("minilua")
    text = (
        "function f(a)\n"
        "  if a > 0 then\n"
        "    return a\n"
        "  end\n"
        "  return 0\n"
        "end\n"
        "print(f(1))\n"
    )
    term = lang.decompose(lang.parse(text))
    scan = lang.adapter.body_paths
    scans = []

    def counted(root):
        scans.append(root)
        return scan(root)

    monkeypatch.setattr(lang.adapter, "body_paths", counted)
    out, n = cov_pass(term, lang)
    assert len(scans) == 2
    assert n == 4 and lang.pretty(lang.recompose(out)).startswith("TC.cov[0] = true\n")


# Programs that mention the marker root (`cov` in MiniC, `TC` in MiniJS and
# MiniLua) as an identifier.  Instrumenting them let the program capture
# the markers, which gave a false TraceDiverged; they are now refused.
MARKER_NAME_PROGRAMS = [
    ("minilua", "local TC = 1\nprint(TC)\nif TC == 1 then print(2) end\nreturn 0\n"),
    ("minijs",
     "function main() { var TC = 1; print(TC); if (TC == 1) { print(2); } return 0; }"),
    ("minic",
     "int main() { int cov = 3; if (cov == 3) { cov = cov + 1; print(cov); }"
     " print(cov); return cov; }"),
    ("minic", "int main() { if (true) { print(1); } return cov[0]; }"),
    ("minijs", "function main() { TC = 5; if (TC == 5) { print(1); } return 0; }"),
]


@pytest.mark.parametrize("lname, text", MARKER_NAME_PROGRAMS)
def test_program_using_a_marker_name_is_refused(lname, text):
    root = "cov" if lname == "minic" else "TC"
    verdict = diff_one(get_language(lname), PASSES["testcov"], 0, text, True)
    assert (verdict.kind, verdict.detail) == (
        "TransformError",
        f"RequirementMissing: testcov on {lname}: the program uses the marker name {root!r}",
    )
