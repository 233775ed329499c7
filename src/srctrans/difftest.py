"""Differential semantic testing of transformation passes.

Each corpus program is run as written, then pushed through
decompose -> pass -> recompose -> pretty -> reparse and run again; the
two traces must match event for event.  Every program gets a verdict and
a failure never aborts the batch, so one report covers the whole corpus.
"""

from __future__ import annotations

from collections.abc import Callable

from .langs.base import LanguageDef, get_language
from .passes.hoist import elementary_hoist, hoist
from .passes.tac import tac
from .passes.testcov import testcov
from .records import Frozen
from .terms import gc_paused


def _identity(term, lang):
    return term


def _testcov_term(term, lang):
    return testcov(term, lang)[0]


PASSES: dict[str, Callable] = {
    "ident": _identity,
    "ehoist": elementary_hoist,
    "hoist": hoist,
    "testcov": _testcov_term,
    "tac": tac,
}


class Verdict(Frozen):
    """Outcome for one corpus program: its `kind` is Equal, TraceDiverged,
    TransformError, ParseError or RunError."""

    __slots__ = ("index", "kind", "detail")

    def __init__(self, index: int, kind: str, detail: str = ""):
        Frozen.__init__(self, index, kind, detail)

    def line(self) -> str:
        return f"{self.index}\t{self.kind}\t{self.detail}".rstrip()


class DiffReport(Frozen):
    __slots__ = ("lang", "pass_name", "verdicts")

    def __init__(self, lang: str, pass_name: str, verdicts: tuple):
        Frozen.__init__(self, lang, pass_name, verdicts)

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts if v.kind == "Equal")

    @property
    def all_equal(self) -> bool:
        return self.passed == len(self.verdicts)

    def render(self) -> str:
        lines = [v.line() for v in self.verdicts]
        lines.append(f"PASS {self.passed}/{len(self.verdicts)}")
        return "\n".join(lines) + "\n"


# A transformed run that stops for fuel where the original did not, having
# agreed with it so far, is run again with this many times the fuel, and
# that run decides: a pass may add steps, but not change what a
# terminating program does.
RERUN_FUEL = 10
_FUEL_TRAP = ("trap", "fuel")


def _stopped_early(before: tuple, after: tuple) -> bool:
    """after ran out of fuel where before did not, agreeing with it up to
    there."""
    return (
        after[-1:] == (_FUEL_TRAP,)
        and before[-1:] != (_FUEL_TRAP,)
        and before[:len(after) - 1] == after[:-1]
    )


def _run(lang: LanguageDef, ast, fuel: int, erase_markers: bool):
    result = lang.run(ast, fuel=fuel)
    return result.erased() if erase_markers else result


def _first_divergence(a: tuple, b: tuple) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


@gc_paused
def diff_one(
    lang: LanguageDef,
    pass_fn: Callable,
    index: int,
    text: str,
    erase_markers: bool = False,
    fuel: int = 100_000,
) -> Verdict:
    try:
        ast = lang.parse(text)
    except Exception as e:
        return Verdict(index, "ParseError", f"original: {e}")
    try:
        before = _run(lang, ast, fuel, erase_markers)
    except Exception as e:
        return Verdict(index, "RunError", f"before: {type(e).__name__}: {e}")

    try:
        out_term = pass_fn(lang.decompose(ast), lang)
        out_text = lang.pretty(lang.recompose(out_term))
    except Exception as e:
        return Verdict(index, "TransformError", f"{type(e).__name__}: {e}")

    try:
        out_ast = lang.parse(out_text)
    except Exception as e:
        return Verdict(index, "ParseError", f"transformed: {e}")
    try:
        after = _run(lang, out_ast, fuel, erase_markers)
        if _stopped_early(before.events, after.events):
            after = _run(lang, out_ast, fuel * RERUN_FUEL, erase_markers)
    except Exception as e:
        return Verdict(index, "RunError", f"after: {type(e).__name__}: {e}")

    if before.events != after.events:
        step = _first_divergence(before.events, after.events)
        want = before.events[step] if step < len(before.events) else "<end>"
        got = after.events[step] if step < len(after.events) else "<end>"
        return Verdict(
            index, "TraceDiverged", f"step {step}: {want!r} vs {got!r}"
        )
    return Verdict(index, "Equal")


def diff_test(
    lang_name: str,
    pass_name: str,
    corpus: list[str],
    fuel: int = 100_000,
) -> DiffReport:
    """Run one pass over a corpus of program texts; testcov's markers are
    erased from both traces."""
    lang = get_language(lang_name)
    try:
        pass_fn = PASSES[pass_name]
    except KeyError:
        raise KeyError(f"unknown pass {pass_name!r}") from None
    erase_markers = pass_name == "testcov"
    verdicts = tuple(
        diff_one(lang, pass_fn, i, text, erase_markers, fuel)
        for i, text in enumerate(corpus)
    )
    return DiffReport(lang_name, pass_name, verdicts)
