"""The tree layers run with the cyclic collector paused (`terms.gc_paused`).

Terms are acyclic and reference counting frees them, so the pause only
defers collection.  These tests check that the pause is taken once per
layer call, that it is given back on every path, that a caller's own
setting is kept, and that an op leaves no cyclic garbage for the
deferred collection to find.
"""

import gc

import pytest

from helpers import HAND, nested_recursion
from srctrans.difftest import PASSES, diff_one
from srctrans.flow import build_cfg, dump_dot
from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language
from srctrans.langs.common import ParseError
from srctrans.passes.hoist import RequirementMissing
from srctrans.schema import GV, ForeignKind, NonConformingValue, from_modular, to_modular
from srctrans.terms import gc_paused

ALL = ("minic", "minijs", "minilua")


def test_nested_calls_leave_the_collector_on():
    seen = []

    @gc_paused
    def inner():
        seen.append(gc.isenabled())
        return 1

    @gc_paused
    def outer():
        seen.append(gc.isenabled())
        return inner() + 1

    assert outer() == 2
    assert seen == [False, False]
    assert gc.isenabled()


def test_nested_layers_leave_the_collector_on():
    # testcov calls build_cfg, and trans_ips calls from_modular and decompose
    lang = get_language("minijs")
    ast = lang.parse(gen_program("minijs", GenConfig(seed=1)))
    term = lang.trans_ips(to_modular(lang.modularized, ast))
    PASSES["testcov"](term, lang)
    assert gc.isenabled()


@pytest.mark.parametrize("case", ["parse", "to_modular", "from_modular", "tac"])
def test_an_exception_leaves_the_collector_on(case):
    minic = get_language("minic")
    minijs = get_language("minijs")
    foreign = minijs.decompose(minijs.parse("function main() { return 1; }"))
    calls = {
        "parse": (ParseError, lambda: minic.parse("int main() {")),
        "to_modular": (
            NonConformingValue, lambda: to_modular(minic.modularized, GV("NoSuchCtor"))
        ),
        "from_modular": (ForeignKind, lambda: from_modular(minic.modularized, foreign)),
        "tac": (
            RequirementMissing,
            lambda: PASSES["tac"](minic.decompose(minic.parse("int main() { return 0; }")), minic),
        ),
    }
    error, call = calls[case]
    with pytest.raises(error):
        call()
    assert gc.isenabled()


def test_a_collector_the_caller_turned_off_stays_off():
    lang = get_language("minilua")
    text = gen_program("minilua", GenConfig(seed=2))
    gc.disable()
    try:
        out = lang.pretty(lang.recompose(PASSES["hoist"](lang.decompose(lang.parse(text)), lang)))
        assert not gc.isenabled()
        with pytest.raises(ParseError):
            lang.parse("function main(")
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert out


def _collections_during(fn, *args):
    """The generations of the collections that start while fn runs, after
    a full collection has cleared what came before."""
    gc.collect()
    starts = []

    def watch(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(watch)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(watch)
    return starts


@pytest.mark.parametrize("lname", ALL)
def test_no_collection_starts_inside_a_layer(lname):
    lang = get_language(lname)
    mod = lang.modularized
    # seed 1 gives each language a program of 3k-14k nodes, over which
    # each layer starts collections when nothing pauses the collector
    text = gen_program(lname, GenConfig(seed=1, max_depth=8, max_stmts=7))
    ast = lang.parse(text)
    generic = lang.trans_ips(to_modular(mod, ast))
    passes = ["ehoist", "hoist", "testcov"] + (["tac"] if lang.tac is not None else [])
    out = PASSES["hoist"](generic, lang)
    surface = lang.untrans_ips(out)
    # each layer entry with the arguments it is given in an op
    layers = {
        "parse": (lang.parse, text),
        "to_modular": (to_modular, mod, ast),
        "decompose": (lang.decompose, ast),
        "trans_ips": (lang.trans_ips, to_modular(mod, ast)),
        **{f"pass.{p}": (PASSES[p], generic, lang) for p in passes},
        "recompose": (lang.recompose, out),
        "untrans_ips": (lang.untrans_ips, out),
        "from_modular": (from_modular, mod, surface),
        "pretty": (lang.pretty, ast),
        "build_cfg": (build_cfg, generic, lang),
        "dump_dot": (dump_dot, build_cfg(generic, lang)),
    }
    started = {name: _collections_during(*call) for name, call in layers.items()}
    assert started == {name: [] for name in layers}


def _garbage_left(fn):
    """How many unreachable objects fn leaves for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        fn()
    finally:
        left = gc.collect()
        gc.enable()
    return left


def _transform(lang, pass_fn, text):
    try:
        term = pass_fn(lang.decompose(lang.parse(text)), lang)
    except RequirementMissing:  # MiniC has no tac
        return
    lang.pretty(lang.recompose(term))


@pytest.mark.parametrize("shadowing", [False, True])
@pytest.mark.parametrize("lname", ALL)
def test_ops_leave_no_cyclic_garbage(lname, shadowing):
    lang = get_language(lname)
    text = gen_program(lname, GenConfig(seed=3, shadowing=shadowing))
    left = {
        "cfg": _garbage_left(
            lambda: dump_dot(build_cfg(lang.decompose(lang.parse(text)), lang))
        )
    }
    for name, pass_fn in PASSES.items():
        left[f"transform {name}"] = _garbage_left(lambda: _transform(lang, pass_fn, text))
        left[f"diff_one {name}"] = _garbage_left(
            lambda: diff_one(lang, pass_fn, 0, text, name == "testcov", 100_000)
        )
    assert left == {op: 0 for op in left}


# f(n) recurses n + 1 calls deep; main is one more call in MiniC and MiniJS
_DEEPEST = {"minic": 98, "minijs": 98, "minilua": 99}


@pytest.mark.parametrize("lname", ALL)
def test_runs_leave_no_cyclic_garbage(lname):
    # a run ending in each trap, a recursion 100 calls deep and breaks out
    # of nested loops; with and without the on_item/on_enter hooks
    lang = get_language(lname)
    programs = dict(HAND[lname], deep=nested_recursion(lname, 1, _DEEPEST[lname]))
    left = {}
    for name, text in programs.items():
        ast = lang.parse(text)
        result = lang.run(ast)
        if name in ("divzero", "type", "undef", "stack", "fuel"):
            assert result.events[-1][0] == "trap"
        if name == "deep":
            assert result.events == (("return", str(_DEEPEST[lname])),)
        calls = []
        left[name] = _garbage_left(lambda: lang.run(ast))
        left[f"{name} hooked"] = _garbage_left(
            lambda: lang.run(ast, on_item=calls.append, on_enter=calls.append)
        )
    assert left == {run: 0 for run in left}
