"""Differential harness: verdicts, report shape, resilience."""

from dataclasses import replace

import pytest

from helpers import COUNTF, HAND
from srctrans.difftest import PASSES, DiffReport, Verdict, diff_one, diff_test
from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import block_items, get_language, with_block_items
from srctrans.passes.hoist import RequirementMissing
from srctrans.terms import TermError, check_term

ALL = ("minic", "minijs", "minilua")


def corpus(lname, n, **kw):
    return [gen_program(lname, GenConfig(seed=s, **kw)) for s in range(n)]


def test_identity_all_equal():
    report = diff_test("minic", "ident", corpus("minic", 30))
    assert report.all_equal
    assert report.passed == 30


def test_report_rendering():
    report = diff_test("minilua", "ident", corpus("minilua", 3))
    lines = report.render().splitlines()
    assert lines[0] == "0\tEqual"
    assert lines[-1] == "PASS 3/3"
    assert len(lines) == 4


def test_parse_error_verdict():
    report = diff_test("minijs", "ident", ["function main() { if }"])
    (v,) = report.verdicts
    assert v.kind == "ParseError"
    assert "original" in v.detail
    assert not report.all_equal


def test_broken_pass_reported_not_raised():
    def drop_last_stmt(term, lang):
        path = lang.adapter.body_paths(term)[0]
        from srctrans.traversal import get_at, replace_at

        body = get_at(term, path)
        items = block_items(body)
        return replace_at(term, path, with_block_items(body, items[:-1]))

    lang = get_language("minijs")
    v = diff_one(
        lang, drop_last_stmt, 0,
        "function main() { print(1); print(2); }",
    )
    assert v.kind == "TraceDiverged"
    assert "step 1" in v.detail


def test_transform_error_verdict():
    def boom(term, lang):
        raise RuntimeError("pass exploded")

    lang = get_language("minic")
    v = diff_one(lang, boom, 0, "int main() { return 0; }")
    assert v.kind == "TransformError"
    assert "pass exploded" in v.detail


def test_batch_survives_bad_entries():
    texts = ["int main() { return 1; }", "int main() {", "int main() { return 2; }"]
    report = diff_test("minic", "hoist", texts)
    kinds = [v.kind for v in report.verdicts]
    assert kinds == ["Equal", "ParseError", "Equal"]
    assert report.passed == 2


def _faulty_run(lang, trigger: str, exc: Exception):
    """lang.run, except that a program calling `trigger` raises exc."""

    def run(ast, **kw):
        if f"{trigger}(" in lang.pretty(ast):
            raise exc
        return lang.run(ast, **kw)

    return run


def test_run_failures_become_verdicts():
    # An exception escaping the interpreter on the original program does
    # not abort the batch.
    lang = get_language("minijs")
    lang = replace(lang, run=_faulty_run(lang, "explode", RecursionError("too deep")))
    lang = replace(lang, run=_faulty_run(lang, "leak", RuntimeError("leaked")))
    texts = [
        "function main() { print(1); }",
        "function main() { leak(1); }",
        "function main() { explode(0); }",
    ]
    verdicts = tuple(
        diff_one(lang, PASSES["ident"], i, t) for i, t in enumerate(texts)
    )
    report = DiffReport("minijs", "ident", verdicts)
    kinds = [v.kind for v in report.verdicts]
    assert kinds == ["Equal", "RunError", "RunError"]
    assert report.verdicts[1].detail.startswith("before: RuntimeError: ")
    assert report.verdicts[2].detail.startswith("before: RecursionError: ")
    assert report.render().endswith("PASS 1/3\n")


def test_run_failure_after_transform():
    def add_leak(term, lang):
        return lang.decompose(lang.parse("function main() { leak(1); }"))

    lang = get_language("minijs")
    lang = replace(lang, run=_faulty_run(lang, "leak", RuntimeError("leaked")))
    v = diff_one(lang, add_leak, 0, "function main() { print(1); }")
    assert v.kind == "RunError"
    assert v.detail.startswith("after: RuntimeError: ")


@pytest.mark.parametrize("pname", ("ehoist", "hoist", "testcov", "tac"))
def test_extra_steps_past_the_fuel_are_run_again(pname):
    # The original returns after 8,380 events within the fuel; each pass
    # adds enough steps that the transformed program needs more.
    text = gen_program("minilua", GenConfig(seed=13508045002))
    v = diff_one(get_language("minilua"), PASSES[pname], 0, text, pname == "testcov")
    assert v == Verdict(0, "Equal")


def test_a_pass_that_never_ends_still_diverges():
    def spin(term, lang):
        return lang.decompose(
            lang.parse("function main() { print(1); while (true) { } return 0; }")
        )

    v = diff_one(get_language("minijs"), spin, 0, "function main() { print(1); return 0; }")
    assert v == Verdict(0, "TraceDiverged", "step 1: ('return', '0') vs ('trap', 'fuel')")


@pytest.mark.parametrize("lname", ALL)
def test_pass_outputs_stay_in_the_ips(lname):
    """Every pass gives a term of the language's IPS, not only one that
    recomposes."""
    lang = get_language(lname)
    texts = {**HAND[lname], "countf": COUNTF[lname]}
    texts.update((f"seed {s}", t) for s, t in enumerate(corpus(lname, 40)))
    bad = []
    for name, text in texts.items():
        term = lang.decompose(lang.parse(text))
        for pname, pass_fn in PASSES.items():
            try:
                out = pass_fn(term, lang)
            except RequirementMissing:
                continue
            try:
                check_term(out, lang.ips)
            except TermError as e:
                bad.append((name, pname, str(e)))
    assert bad == []


def test_testcov_erases_markers_by_default():
    report = diff_test("minijs", "testcov", corpus("minijs", 20))
    assert report.all_equal


def test_unknown_pass_rejected():
    with pytest.raises(KeyError, match="nosuch"):
        diff_test("minic", "nosuch", [])


def test_registered_passes():
    assert set(PASSES) == {"ident", "ehoist", "hoist", "testcov", "tac"}


def test_verdict_line_format():
    assert Verdict(4, "Equal").line() == "4\tEqual"
    assert Verdict(0, "TraceDiverged", "step 2: x vs y").line() == (
        "0\tTraceDiverged\tstep 2: x vs y"
    )


def test_minijs_directive_with_escaped_newline_round_trips():
    text = 'function main() { "a\\\nb"; return 1; }'
    assert diff_test("minijs", "ident", [text]).verdicts[0].kind == "Equal"
    lang = get_language("minijs")
    ast = lang.parse(text)
    printed = lang.pretty(ast)
    assert printed == 'function main() {\n  "a\\\nb";\n  return 1;\n}\n'
    assert lang.parse(printed) == ast
    assert lang.pretty(lang.parse(printed)) == printed


# An array that contains itself, two that contain each other, and arrays
# nested 5000 deep: MiniJS equality and printing take a nested array on
# an explicit stack, so none of these exhausts the Python stack.
CYCLIC_ARRAYS = {
    "self": "function main() {\n  var a = [0];\n  a[0] = a;\n  print(a);\n"
            "  return a == a;\n}\n",
    "mutual": "function main() {\n  var a = [0];\n  var b = [1];\n  a[0] = b;\n"
              "  b[0] = a;\n  print(a, b);\n  print(a == b);\n  return a[0] == b;\n}\n",
    "deep": "function main() {\n  var a = [0];\n  var b = [0];\n  var i = 0;\n"
            "  while (i < 5000) {\n    a = [a, i];\n    b = [b, i];\n    i = i + 1;\n  }\n"
            "  print(a);\n  print(a == b);\n  b[1] = 0;\n  return a == b;\n}\n",
}


@pytest.mark.parametrize("name", sorted(CYCLIC_ARRAYS))
def test_cyclic_and_deep_arrays_are_equal(name):
    text = CYCLIC_ARRAYS[name]
    for pname in ("ident", "ehoist", "hoist", "tac"):
        report = diff_test("minijs", pname, [text])
        assert report.all_equal, (pname, report.render())


def test_cyclic_and_deep_arrays_print_and_compare():
    lang = get_language("minijs")
    events = {n: lang.run(lang.parse(t)).events for n, t in CYCLIC_ARRAYS.items()}
    assert events["self"] == (("print", "[[...]]"), ("return", "true"))
    assert events["mutual"] == (
        ("print", "[[[...]]] [[[...]]]"), ("print", "true"), ("return", "true"),
    )
    deep = events["deep"]
    assert deep[0][1] == "[" * 5001 + "0]" + "".join(f", {i}]" for i in range(5000))
    assert deep[1:] == (("print", "true"), ("return", "false"))
