"""End-to-end acceptance checks at full corpus scale.

Each test covers one headline property of the toolkit and prints a
single pass/fail line; run with `-s` (or read captured output) for the
summary.  The corpora are deterministic, so two consecutive runs of this
module produce identical results.
"""

import hashlib
import random
import time

import pytest

from helpers import (
    COUNTF,
    TermFuzzer,
    atomization_violations,
    executed_blocks_oracle,
    random_schema,
    random_value,
    without_origin,
)
from srctrans.difftest import diff_test
from srctrans.flow import basic_blocks, build_cfg, dump_dot
from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language
from srctrans.passes.hoist import elementary_hoist, hoist, postcondition_violations
from srctrans.passes.tac import tac
from srctrans.passes.testcov import testcov as cov_pass
from srctrans.schema import (
    dump_modularized,
    from_modular,
    modularize_schema,
    parse_schema_text,
    to_modular,
)

ALL = ("minic", "minijs", "minilua")
UNTYPED = ("minijs", "minilua")

CORPUS_SIZE = 1000

# sha256 of the criterion-10 report (13937 bytes).  Pins the output bytes
# across code changes, not only across reruns within one process.
REPORT_SHA256 = "4301247cf1ac3601fbf2622125944bd8dcb1692af50b33dcd7611157b4d14a56"


def report(num, name, ok, detail=""):
    line = f"[{num:2}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def plain_corpus():
    return {
        lname: [
            gen_program(lname, GenConfig(seed=s)) for s in range(CORPUS_SIZE)
        ]
        for lname in ALL
    }


@pytest.fixture(scope="module")
def shadow_corpus():
    return {
        lname: [
            gen_program(lname, GenConfig(seed=s, shadowing=True))
            for s in range(CORPUS_SIZE)
        ]
        for lname in ALL
    }


def test_criterion_01_modularizer_isomorphism():
    t0 = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    for i in range(50):
        schema = random_schema(rng, i)
        lang = modularize_schema(schema)
        for _ in range(1000):
            v = random_value(schema, schema.root_type, rng)
            t = to_modular(lang, v)
            assert from_modular(lang, t) == v
            assert to_modular(lang, from_modular(lang, t)) == t
            checked += 1
    elapsed = time.monotonic() - t0
    report(1, "modularizer isomorphism", elapsed < 60.0,
           f"{checked} values, {elapsed:.1f}s")


def test_criterion_02_modularization_golden():
    text = (
        "type Arith = Add Atom Atom\n"
        "type Atom = Var String | Const Lit\n"
        "type Lit = Lit Int\n"
    )
    expected = (
        "language Arith\n"
        "root Arith.ArithL\n"
        "sort Arith.ArithL\n"
        "sort Arith.AtomL\n"
        "sort Arith.LitL\n"
        "kind Arith.Add : Arith.AtomL Arith.AtomL -> Arith.ArithL\n"
        "kind Arith.Var : String -> Arith.AtomL\n"
        "kind Arith.Const : Arith.LitL -> Arith.AtomL\n"
        "kind Arith.Lit : Int -> Arith.LitL\n"
    )
    got = dump_modularized(modularize_schema(parse_schema_text(text, "Arith")))
    report(2, "Arith modularization golden", got == expected)


def test_criterion_03_decompose_recompose(plain_corpus):
    t0 = time.monotonic()
    total = 0
    for lname in ALL:
        lang = get_language(lname)
        for text in plain_corpus[lname]:
            ast = lang.parse(text)
            term = lang.decompose(ast)
            assert lang.recompose(term) == ast
            # without provenance, recompose walks every node
            assert lang.recompose(without_origin(term)) == ast
            total += 1
    elapsed = time.monotonic() - t0
    report(3, "decompose/recompose isomorphism", elapsed < 120.0,
           f"{total} programs, {elapsed:.1f}s")


def test_criterion_04_identity_difftest(plain_corpus):
    results = []
    for lname in ALL:
        r = diff_test(lname, "ident", plain_corpus[lname])
        results.append((lname, r.passed, len(r.verdicts)))
        assert r.all_equal, r.render()
    report(4, "identity pass all Equal", True,
           ", ".join(f"{l} {p}/{n}" for l, p, n in results))


def test_criterion_05_elementary_hoist_golden():
    import re

    src = (
        "int f(int a, int b, int s) {\n"
        "  int t1 = 0, t2 = 1;\n"
        "  if (s) {\n"
        "    int r1 = t1 * a + t2 * b;\n"
        "    return r1;\n"
        "  }\n"
        "  int r2 = t2 * a + t1 * b;\n"
        "  return r2;\n"
        "}\n"
    )
    expected = (
        "int f(int a, int b, int s) {\n"
        "  int t1, t2; int r2;\n"
        "  t1 = 0; t2 = 1;\n"
        "  if (s) {\n"
        "    int r1;\n"
        "    r1 = t1 * a + t2 * b;\n"
        "    return r1;\n"
        "  }\n"
        "  r2 = t2 * a + t1 * b;\n"
        "  return r2;\n"
        "}\n"
    )
    lang = get_language("minic")
    got = lang.pretty(
        lang.recompose(elementary_hoist(lang.decompose(lang.parse(src)), lang))
    )
    toks = lambda s: re.findall(r"\w+|[^\s\w]", s)
    report(5, "hoisting golden (token stream)", toks(got) == toks(expected))


def test_criterion_06_hoist_difftest(shadow_corpus):
    details = []
    for lname in ALL:
        lang = get_language(lname)
        r = diff_test(lname, "hoist", shadow_corpus[lname])
        rate = r.passed / len(r.verdicts)
        bad = [v.line() for v in r.verdicts if v.kind != "Equal"]
        assert rate >= 0.995, f"{lname}: {rate:.4f}\n" + "\n".join(bad)
        for text in shadow_corpus[lname]:
            out = hoist(lang.decompose(lang.parse(text)), lang)
            assert postcondition_violations(out, lang) == []
        details.append(f"{lname} {r.passed}/{len(r.verdicts)}")
        for line in bad:
            details.append(f"triage {lname} {line}")
    report(6, "hoist preservation + postcondition", True, ", ".join(details))


def test_criterion_07_coverage(plain_corpus):
    for lname in ALL:
        lang = get_language(lname)
        term, n = cov_pass(lang.decompose(lang.parse(COUNTF[lname])), lang)
        out = lang.pretty(lang.recompose(term))
        import re

        assert n == 5
        assert [int(m) for m in re.findall(r"cov\[(\d+)\] = true", out)] == [
            0, 1, 2, 3, 4,
        ]
        for text in plain_corpus[lname][:200]:
            ast = lang.parse(text)
            gterm = lang.decompose(ast)
            cfg = build_cfg(gterm, lang)
            blocks = basic_blocks(cfg)
            iterm, count = cov_pass(gterm, lang)
            run = lang.run(lang.parse(lang.pretty(lang.recompose(iterm))))
            hit = {e[1] for e in run.events if e[0] == "cov"}
            assert count == len(blocks)
            assert hit == executed_blocks_oracle(lang, ast, cfg, blocks)
    report(7, "coverage markers + executed-path oracle", True,
           "countF golden + 200 programs x 3 languages")


def test_criterion_08_tac(plain_corpus):
    js = get_language("minijs")

    def apply(lang, text):
        return lang.pretty(
            lang.recompose(tac(lang.decompose(lang.parse(text)), lang))
        )

    golden = apply(js, "function main() { x = 1 + 1 + 1; }")
    assert golden == "function main() {\n  var __t0 = 1 + 1;\n  x = __t0 + 1;\n}\n"

    for lname in UNTYPED:
        lang = get_language(lname)
        for text in plain_corpus[lname]:
            out = tac(lang.decompose(lang.parse(text)), lang)
            assert atomization_violations(lang, out) == []
        for text in plain_corpus[lname][:200]:
            before = lang.run(lang.parse(text)).events
            after = lang.run(lang.parse(apply(lang, text))).events
            calls = [e for e in before if e[0] == "call"]
            assert [e for e in after if e[0] == "call"] == calls
            assert before == after

    three_site = (
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
    out = apply(js, three_site)
    lines = [ln.strip() for ln in out.splitlines()]
    assert "for (; __t3; ) {" in lines
    assert lines.count("__t3 = __t0 < __t2;") == 3
    assert lines[lines.index("continue;") - 1] == "__t3 = __t0 < __t2;"
    assert js.run(js.parse(out)).events == js.run(js.parse(three_site)).events
    report(8, "three-address code", True,
           "golden + atomic scan + call counts + 3-site condition")


def test_criterion_09_injection_roundtrip():
    total = 0
    for lname in ALL:
        lang = get_language(lname)
        fuzz = TermFuzzer(lang.ips, seed=11)
        for decl in lang.injections.edges():
            for _ in range(1000):
                t = fuzz.term(decl.from_sort)
                up = lang.injections.inj(t, decl.to_sort)
                assert lang.injections.proj(up, decl.from_sort) == t
                total += 1
    report(9, "injection round-trip", True, f"{total} embeddings")


def _pipeline_report() -> str:
    """A reduced-scale rerun of everything with printable output."""
    chunks = []
    for lname in ALL:
        corpus = [gen_program(lname, GenConfig(seed=s)) for s in range(100)]
        for pass_name in ("ident", "hoist", "testcov") + (
            ("tac",) if lname in UNTYPED else ()
        ):
            r = diff_test(lname, pass_name, corpus)
            chunks.append(f"== {lname} {pass_name}\n{r.render()}")
        lang = get_language(lname)
        chunks.append(lang.injections.dump())
        term = lang.decompose(lang.parse(COUNTF[lname]))
        chunks.append(dump_dot(build_cfg(term, lang)))
        iterm, _ = cov_pass(term, lang)
        chunks.append(lang.pretty(lang.recompose(iterm)))
    text = (
        "type Arith = Add Atom Atom\n"
        "type Atom = Var String | Const Lit\n"
        "type Lit = Lit Int\n"
    )
    chunks.append(dump_modularized(modularize_schema(parse_schema_text(text, "Arith"))))
    return "\n".join(chunks)


def test_criterion_10_determinism():
    first = _pipeline_report()
    second = _pipeline_report()
    report(10, "determinism (byte-identical reruns)", first == second,
           f"{len(first)} bytes")
    assert hashlib.sha256(first.encode()).hexdigest() == REPORT_SHA256
