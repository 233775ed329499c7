"""Tick-exact pin of what the reference interpreters do.

Per language, every program runs as written and after every pass, at
each fuel in FUELS, so the step at which fuel runs out is pinned to the
tick.  The programs are generated ones, default and shadowing, COUNTF and
the hand-written `HAND` programs of helpers.py.  One hash covers the events and the sorted coverage of each
run; another covers the on_item/on_enter calls of each run, as indices
into `item_walk` and into the routine bodies.  The hashes were measured
on the tree-walking interpreters; the closure compiler that replaced
them must leave every one unchanged.
"""

import hashlib

import pytest

from helpers import COUNTF, HAND, _interp_bodies
from srctrans.difftest import PASSES
from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language

PINNED = {
    "minic": {
        "runs": "cb315bab7eeeeb66ae3cc9683b6d61955d9ec55a36095e87872b3c7eebb619bb",
        "hooks": "9cb078e6ffd74b4f8d071b7d0e8978adb5ae08324ed4a23f5dca7067cacb1a0f",
    },
    "minijs": {
        "runs": "556567069adadb00d55154e56ee4adf8d66191fa18b15afba309a7bfb23cef37",
        "hooks": "c97fbc544d0e19d40d0869682e549fb20a572b1bd39c856c1fa4fa7604bdfd94",
    },
    "minilua": {
        "runs": "5d0816ef47dc411426bb4834571724d80173ac5f227b380da7695e4fc7fda535",
        "hooks": "47c2a5dd070dc06d007479d221410cc6ed18e38b7dc199b747f21c900a255dcf",
    },
}

FUELS = (1, 2, 3, 5, 10, 30, 100, 300, 1000, 100_000)

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _programs(lname: str) -> list[str]:
    texts = [gen_program(lname, GenConfig(seed=s)) for s in range(30)]
    texts += [gen_program(lname, GenConfig(seed=s, shadowing=True)) for s in range(30)]
    texts.append(COUNTF[lname])
    texts += HAND[lname].values()
    return texts


def _variants(lang, text: str):
    """(label, ast) of text as written and of each pass's output."""
    ast = lang.parse(text)
    yield "as written", ast
    for name, pass_fn in PASSES.items():
        try:
            out = lang.pretty(lang.recompose(pass_fn(lang.decompose(ast), lang)))
        except Exception as e:  # MiniC has no tac
            yield f"{name}: {type(e).__name__}", None
            continue
        yield name, lang.parse(out)


def _listings(lname: str) -> tuple[str, str]:
    lang = get_language(lname)
    runs: list[str] = []
    hooks: list[str] = []
    for p, text in enumerate(_programs(lname)):
        for label, ast in _variants(lang, text):
            runs.append(f"program {p} {label}")
            hooks.append(runs[-1])
            if ast is None:
                continue
            item_index = {id(node): i for i, node in enumerate(lang.item_walk(ast))}
            body_index = _interp_bodies(lang, ast)
            for fuel in FUELS:
                plain = lang.run(ast, fuel=fuel)
                runs.append(f"{fuel} {plain.events!r} {sorted(plain.coverage.items())}")
                calls: list = []
                hooked = lang.run(
                    ast, fuel=fuel,
                    on_item=lambda node: calls.append(item_index.get(id(node))),
                    on_enter=lambda func: calls.append(("enter", body_index.get(id(func)))),
                )
                assert hooked == plain
                hooks.append(f"{fuel} {calls!r}")
    return "\n".join(runs), "\n".join(hooks)


@pytest.mark.parametrize("lname", sorted(PINNED))
def test_runs_are_pinned(lname):
    runs, hooks = _listings(lname)
    assert {"runs": _sha(runs), "hooks": _sha(hooks)} == PINNED[lname]
