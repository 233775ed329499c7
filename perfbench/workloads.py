"""Seeded inputs for the three benchmark workloads.

A workload turns ``(seed, seconds)`` into a list of ops.  The same pair
always gives the same list, and two seeds never share a program: every
generator seed used for benchmark seed ``s`` lies in
``[s * SEED_STRIDE, (s + 1) * SEED_STRIDE)``.  ``seconds`` only sets how
many cases the list holds, sized so that one pass over it takes about
``PASS_SHARE * seconds`` on the reference host (see README.md).

Program sizes are stratified rather than drawn freely.  A run holds 45 to
340 programs, and with free draws the mix of small and large programs
alone moved the per-run medians by about 10 % from seed to seed.  Each
case therefore draws from a fixed size band; the seed decides which
program of that band it gets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from srctrans.gen import GenConfig, gen_program

LANGS = ("minic", "minijs", "minilua")
UNTYPED = ("minijs", "minilua")

SEED_STRIDE = 1_000_000
CASE_STRIDE = 1_000  # candidate generator seeds per case
PASS_SHARE = 0.8  # one pass should fill this share of --seconds


@dataclass(frozen=True)
class Op:
    """One unit of timed work: a `diff_one` call, a transform or a cfg dump."""

    index: int
    kind: str  # "diff" | "transform" | "cfg"
    lang: str
    pass_name: str  # "" for cfg ops
    text: str
    source: str  # where the input came from, for failure reports

    def label(self) -> str:
        what = self.pass_name or "cfg"
        return f"#{self.index} {self.kind} {self.lang} {what} <{self.source}>"


def build(workload: str, seed: int, seconds: float) -> list[Op]:
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}")
    builder, cases_per_s = _BUILDERS[workload]
    cases = max(1, round(seconds * PASS_SHARE * cases_per_s))
    ops: list[Op] = []

    def add(kind: str, lang: str, pass_name: str, text: str, source: str):
        ops.append(Op(len(ops), kind, lang, pass_name, text, source))

    builder(seed, cases, add)
    return ops


def _first_in_band(lang: str, cfg: GenConfig, base: int, lo: int, hi: int):
    """The first program from seeds base, base+1, ... whose text length is
    in [lo, hi), with the seed that produced it."""
    for s in range(base, base + CASE_STRIDE):
        text = gen_program(lang, replace(cfg, seed=s))
        if lo <= len(text) < hi:
            return text, s
    raise RuntimeError(f"{lang}: no program of {lo}..{hi} bytes from seed {base}")


# ---------------------------------------------------------------------------
# difftest-gen: what `srctrans difftest` users run.
#
# Default-config programs stratified into eight equally likely bands of
# text length.  The edges are the octiles of gen_program(lang,
# GenConfig(seed=s)) over s in 0..1999, so the corpus keeps the
# generator's own size distribution.

_DEFAULT_OCTILES = {
    "minic": (425, 687, 931, 1182, 1498, 1849, 2392),
    "minijs": (434, 703, 965, 1212, 1517, 1892, 2483),
    "minilua": (312, 462, 672, 922, 1222, 1582, 2107),
}


def _band(lang: str, b: int) -> tuple[int, int]:
    edges = (0,) + _DEFAULT_OCTILES[lang] + (1 << 30,)
    return edges[b], edges[b + 1]


def _difftest_gen(seed: int, groups: int, add) -> None:
    for g in range(groups):
        base = seed * SEED_STRIDE + g * CASE_STRIDE
        for lang in LANGS:
            lo, hi = _band(lang, g % 8)
            plain, s = _first_in_band(lang, GenConfig(), base, lo, hi)
            for pass_name in ("ident", "ehoist", "testcov") + (
                ("tac",) if lang in UNTYPED else ()
            ):
                add("diff", lang, pass_name, plain, f"gen seed={s}")
            shadow, s = _first_in_band(lang, GenConfig(shadowing=True), base, lo, hi)
            add("diff", lang, "hoist", shadow, f"gen seed={s} shadowing")


# ---------------------------------------------------------------------------
# transform-large: the term core and the passes do most of the work.
#
# A ladder of three text sizes, 3, 6 and 12 kB (about 1.5k, 3k and 6k term
# nodes), cycling through the languages.  Each rung draws from the generator setting whose median
# is nearest to it, so that finding a program of the right size is cheap.

LADDER = (
    (3_000, GenConfig(max_depth=7, max_stmts=6)),
    (6_000, GenConfig(max_depth=7, max_stmts=7)),
    (12_000, GenConfig(max_depth=8, max_stmts=7)),
)


def _transform_large(seed: int, cases: int, add) -> None:
    for i in range(cases):
        lang = LANGS[i % len(LANGS)]
        target, cfg = LADDER[(i // len(LANGS)) % len(LADDER)]
        base = seed * SEED_STRIDE + i * CASE_STRIDE
        text, s = _first_in_band(lang, cfg, base, target * 19 // 20, target * 21 // 20)
        source = f"gen seed={s} depth={cfg.max_depth} stmts={cfg.max_stmts}"
        for pass_name in ("ident", "hoist", "testcov") + (
            ("tac",) if lang in UNTYPED else ()
        ):
            add("transform", lang, pass_name, text, source)
        add("cfg", lang, "", text, source)


# ---------------------------------------------------------------------------
# interp-loops: small source, long execution.
#
# One template per language: a 100 x 10 counted loop nest with a
# `continue` (MiniLua has none, so a guard plays its part and a `break`
# ends the inner loop), a short-circuit condition and a call of fib(12).
# The seed picks the constants and a bound within +-4 % of 100 outer
# iterations.  Every transformed template runs within 70 000 of the default
# 100 000 fuel, which a test checks.

_LOOP_MINIC = """\
int fib(int n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
int main() {
  int acc = {a0};
  int hits = 0;
  int i = 0;
  for (i = 0; i < {outer}; i = i + 1) {
    int j = 0;
    while (j < 10) {
      j = j + 1;
      if (j % {m} == {r}) {
        continue;
      }
      if (acc > {lo} && (i + j) % {k} != 0 || j == 1) {
        hits = hits + 1;
      }
      acc = (acc * {c} + i - j) % {mod};
    }
  }
  print(hits);
  print(acc);
  print(fib(12));
  return acc;
}
"""

_LOOP_MINIJS = """\
function fib(n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
function main() {
  var acc = {a0};
  var hits = 0;
  var i = 0;
  for (i = 0; i < {outer}; i = i + 1) {
    var j = 0;
    while (j < 10) {
      j = j + 1;
      if (j % {m} == {r}) {
        continue;
      }
      if (acc > {lo} && (i + j) % {k} != 0 || j == 1) {
        hits = hits + 1;
      }
      acc = (acc * {c} + i - j) % {mod};
    }
  }
  print(hits);
  print(acc);
  print(fib(12));
  return acc;
}
"""

_LOOP_MINILUA = """\
function fib(n)
  if n < 2 then
    return n
  end
  return fib(n - 1) + fib(n - 2)
end
local acc = {a0}
local hits = 0
for i = 0, {outer} - 1 do
  local j = 0
  while true do
    j = j + 1
    if j > 10 then
      break
    end
    if j % {m} ~= {r} then
      if acc > {lo} and (i + j) % {k} ~= 0 or j == 1 then
        hits = hits + 1
      end
      acc = (acc * {c} + i - j) % {mod}
    end
  end
end
print(hits)
print(acc)
print(fib(12))
"""

_LOOP_TEMPLATES = {"minic": _LOOP_MINIC, "minijs": _LOOP_MINIJS, "minilua": _LOOP_MINILUA}


def _loop_params(rng: random.Random) -> dict:
    m = rng.randrange(5, 9)
    return {
        "a0": rng.randrange(0, 10),
        "outer": rng.randrange(96, 105),
        "m": m,
        "r": rng.randrange(1, m),
        "lo": rng.randrange(10, 60),
        "k": rng.randrange(2, 5),
        "c": rng.randrange(2, 10),
        "mod": rng.choice((89, 97, 101, 103)),
    }


def _interp_loops(seed: int, groups: int, add) -> None:
    for g in range(groups):
        for lang in LANGS:
            s = seed * SEED_STRIDE + g * CASE_STRIDE + LANGS.index(lang)
            params = _loop_params(random.Random(s))
            text = _LOOP_TEMPLATES[lang]
            for name, value in params.items():
                text = text.replace("{" + name + "}", str(value))
            for pass_name in ("ident", "testcov", "hoist") + (
                ("tac",) if lang in UNTYPED else ()
            ):
                add("diff", lang, pass_name, text, f"loops seed={s}")


# cases per second of one pass on the reference host; see README.md
_BUILDERS = {
    "difftest-gen": (_difftest_gen, 2.8),  # 56 groups, seven per band, at 25 s
    "transform-large": (_transform_large, 2.25),  # 45 files, five per rung and language
    "interp-loops": (_interp_loops, 0.85),  # 17 groups of three templates
}
WORKLOADS = tuple(_BUILDERS)
