"""The timed work of one op, untraced and traced, and the checks on it.

The untraced op is what a user runs: `diff_one` for a difftest op, and
parse -> decompose -> pass -> recompose -> pretty for a transform op, as
`srctrans transform` does.  The traced op makes the same calls one layer
at a time, each inside a span, and returns the intermediate values so
that counts can be taken after the op's time has been recorded.

`check` and `Counts` run outside any timed region.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from srctrans.difftest import Verdict, diff_one
from srctrans.flow import build_cfg, dump_dot
from srctrans.langs.base import get_language
from srctrans.schema import from_modular, to_modular
from srctrans.terms import iter_subterms

from workloads import Op

FUEL = 100_000  # diff_one's default


@dataclass
class Result:
    """What an op produced; fields an op kind does not produce stay None."""

    verdict: Optional[Verdict] = None
    ast: object = None
    term: object = None  # decomposed input
    out_term: object = None  # pass output
    recomposed: object = None
    text: Optional[str] = None  # pretty output or dot text
    runs: tuple = ()  # RunResults before and after, traced diff ops only
    error: Optional[str] = None


def attempt(fn: Callable, *args) -> Result:
    """Call an op function; an exception becomes a failed result."""
    try:
        return fn(*args)
    except Exception as e:  # a failing op is counted, never fatal
        return Result(error=f"{type(e).__name__}: {e}")


def run_op(op: Op, pass_fn: Optional[Callable]) -> Result:
    """The untraced op."""
    lang = get_language(op.lang)
    if op.kind == "diff":
        erase = op.pass_name == "testcov"
        return Result(verdict=diff_one(lang, pass_fn, op.index, op.text, erase, FUEL))
    ast = lang.parse(op.text)
    term = lang.decompose(ast)
    if op.kind == "cfg":
        return Result(ast=ast, term=term, text=dump_dot(build_cfg(term, lang)))
    out = pass_fn(term, lang)
    rec = lang.recompose(out)
    return Result(ast=ast, term=term, out_term=out, recomposed=rec, text=lang.pretty(rec))


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans kept in memory: (name, start, end, parent, op).

    `parent` is the index of the enclosing span, or -1 for an op's root.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self.op = -1

    def call(self, name: str, fn: Callable, *args):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def run_op_traced(op: Op, pass_fn: Optional[Callable], tr: Tracer) -> Result:
    """The op as `tr.call` spans: one root span named "op" and one per layer.

    Difftest ops repeat `diff_one` step for step, so that their verdicts
    can be compared with the untraced run's.
    """
    tr.op = op.index
    return tr.call("op", _traced_body, op, pass_fn, tr)


def _decompose(lang, ast, tr: Tracer):
    mod = tr.call("to_modular", to_modular, lang.modularized, ast)
    return tr.call("trans_ips", lang.trans_ips, mod)


def _recompose(lang, term, tr: Tracer):
    mod = tr.call("untrans_ips", lang.untrans_ips, term)
    return tr.call("from_modular", from_modular, lang.modularized, mod)


def _traced_body(op: Op, pass_fn, tr: Tracer) -> Result:
    lang = get_language(op.lang)
    r = Result()
    if op.kind != "diff":
        r.ast = tr.call("parse", lang.parse, op.text)
        r.term = _decompose(lang, r.ast, tr)
        if op.kind == "cfg":
            r.text = tr.call("cfg", lambda: dump_dot(build_cfg(r.term, lang)))
            return r
        r.out_term = tr.call("pass." + op.pass_name, pass_fn, r.term, lang)
        r.recomposed = _recompose(lang, r.out_term, tr)
        r.text = tr.call("pretty", lang.pretty, r.recomposed)
        return r

    index = op.index
    try:
        r.ast = tr.call("parse", lang.parse, op.text)
    except Exception as e:
        r.verdict = Verdict(index, "ParseError", f"original: {e}")
        return r
    before = tr.call("run", lang.run, r.ast, FUEL)
    try:
        r.term = _decompose(lang, r.ast, tr)
        r.out_term = tr.call("pass." + op.pass_name, pass_fn, r.term, lang)
        r.recomposed = _recompose(lang, r.out_term, tr)
        r.text = tr.call("pretty", lang.pretty, r.recomposed)
    except Exception as e:
        r.verdict = Verdict(index, "TransformError", f"{type(e).__name__}: {e}")
        return r
    try:
        out_ast = tr.call("parse", lang.parse, r.text)
    except Exception as e:
        r.verdict = Verdict(index, "ParseError", f"transformed: {e}")
        return r
    after = tr.call("run", lang.run, out_ast, FUEL)
    r.runs = (before, after)
    detail = tr.call("compare", _compare, before, after, op.pass_name == "testcov")
    r.verdict = Verdict(index, "TraceDiverged", detail) if detail else Verdict(index, "Equal")
    return r


def _compare(before, after, erase: bool) -> str:
    """diff_one's trace comparison: "" when equal, else its detail text."""
    if erase:
        before, after = before.erased(), after.erased()
    a, b = before.events, after.events
    if a == b:
        return ""
    step = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    want = a[step] if step < len(a) else "<end>"
    got = b[step] if step < len(b) else "<end>"
    return f"step {step}: {want!r} vs {got!r}"


# ---------------------------------------------------------------------------
# Checks and counts, outside the timed region


def result_key(op: Op, r: Result) -> str:
    """Digest of an op's input and of what it produced: its verdict line,
    output text or error."""
    if r.error is not None:
        out = "error\n" + r.error
    elif r.verdict is not None:
        out = r.verdict.line()
    else:
        out = r.text
    return hashlib.sha256(f"{op.text}\0{out}".encode()).hexdigest()


def check(op: Op, r: Result) -> str:
    """What is wrong with one op's result; empty when nothing is.

    A difftest op must give `Equal`.  A transform op's text must reparse
    to a parse/pretty fixed point, and for `ident` the recomposed tree
    must equal the parsed one.  A cfg op must dump a graph.
    """
    if r.error is not None:
        return r.error
    if op.kind == "diff" and r.verdict.kind != "Equal":
        return r.verdict.line()
    if op.kind == "cfg":
        ok = r.text.startswith("digraph cfg {\n") and r.text.endswith("}\n")
        return "" if ok else "malformed dot output"
    if op.kind == "transform":
        lang = get_language(op.lang)
        try:
            again = lang.pretty(lang.parse(r.text))
        except Exception as e:
            return f"output does not reparse: {type(e).__name__}: {e}"
        if again != r.text:
            return "output is not a parse/pretty fixed point"
    if op.pass_name == "ident" and r.recomposed is not None and r.recomposed != r.ast:
        return "recompose(decompose(ast)) != ast"
    return ""


def node_count(term) -> int:
    return sum(1 for _ in iter_subterms(term))


@dataclass
class Counts:
    """Exact counts of one traced pass; they must repeat run to run."""

    decomposed: int = 0
    out: dict = field(default_factory=dict)  # pass -> output nodes
    reused: dict = field(default_factory=dict)  # pass -> output nodes shared with input
    pretty_bytes: int = 0
    run_events: int = 0

    def add(self, op: Op, r: Result) -> int:
        """Count one op; returns its decomposed node count (0 if none)."""
        if r.term is None:
            return 0
        nodes = node_count(r.term)
        self.decomposed += nodes
        if r.out_term is not None and op.pass_name != "ident":
            inputs = {id(t) for t in iter_subterms(r.term)}
            out = reused = 0
            for t in iter_subterms(r.out_term):
                out += 1
                reused += id(t) in inputs
            self.out[op.pass_name] = self.out.get(op.pass_name, 0) + out
            self.reused[op.pass_name] = self.reused.get(op.pass_name, 0) + reused
        if r.text is not None and op.kind != "cfg":
            self.pretty_bytes += len(r.text.encode())
        self.run_events += sum(len(run.events) for run in r.runs)
        return nodes
