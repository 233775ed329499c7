"""Byte-level pin of the lexers and of the term core's contract.

The hashes were measured on the character-by-character lexer, before
each language compiled its lexer into one regular expression.  Per
language the test hashes the token lists of twenty generated programs,
and the tokens or the exact `ParseError` text, plus the parse outcome,
of a seeded fuzz of mutated inputs.  The fuzz alphabet leaves out
characters such as `²` that `str.isdigit` accepts and `int` rejects:
those once escaped the parsers as `ValueError` and now lex as an
unexpected character (see test_unicode_superscript_is_a_parse_error).

A parser reads each language's `scan`, one `findall` that gives token
texts and their kinds but no positions; `tokenize`, which the hashes
pin, is the exact lexer that errors take their positions from.  The
scan must agree with it on every input: the same values and kinds, or
the same `ParseError`.
"""

import dataclasses
import hashlib
import random
import time
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language
from srctrans.langs.common import ParseError, token_value
from srctrans.terms import (
    ArityMismatch,
    Atom,
    ListOf,
    NodeKind,
    PayloadMismatch,
    SortMismatch,
    UnknownKind,
    list_kind,
    mk_term,
)

from test_parse_pin import _mutants

LANGS = ("minic", "minijs", "minilua")

PINNED = {
    "minic": {
        "generated": "af2ca0f3f55c06e054b0e44ae728da9e54fe3b52e93af4b59ba41ecd457cc0b4",
        "fuzz": "1e3e6726886e77f479443bf0eea5666077f6dd3b595ddbb178f671ffa803b287",
    },
    "minijs": {
        "generated": "a8c855de42152111244892e42f70847a80520688101380d57eabf1bdc747d5d3",
        "fuzz": "f1cb8e258b31389a167f4bae47b2af736d7d47e7be01215d07a3a595a71d6ca4",
    },
    "minilua": {
        "generated": "7d2323dad6099ceb5bc12cb1a3018884718e9ca25c00d065a61c7f123bae36cb",
        "fuzz": "ca82e3741f71fe62b2ba78fc94daf7de4e7f46b32f2cc3a06618583f0775e291",
    },
}

# Pieces the fuzz appends: Unicode spaces, letters, a letter number, an
# Arabic-Indic digit, quotes, escapes, every comment marker and operator
# character of the three languages, and newlines.  Characters no
# language accepts are drawn less often, so that most inputs lex.
_ALPHABET = [
    "\xa0", " ", "\x0b", "\x1c", "\t", "\r", "\n", "\x85", "\u2028",
    "é", "ß", "aⅫ", "٣", "a", "Z", "_", "0", "7", "x1",
    '"', "'", '\\"', "//", "--", "/", "-",
    "=", "==", "<", ">", "!", "~=", "&&", "||",
    "+", "*", "%", "(", ")", "[", "]", "{", "}", ",", ";", ".",
]
_RARE = ["Ⅻ", "\\", "\\\n", "~", "&", "|", "#", "@", "$", "?", ":"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tokenize(lname: str, text: str) -> list[tuple]:
    toks = import_module(f"srctrans.langs.{lname}").tokenize(text)
    return [(t.kind, t.value, t.line, t.col) for t in toks]


def _lex_outcome(lname: str, text: str) -> str:
    try:
        return repr(_tokenize(lname, text))
    except ParseError as e:
        return f"ParseError: {e}"


def _parse_outcome(lname: str, text: str) -> str:
    try:
        return "ok " + _sha(repr(get_language(lname).parse(text)))
    except ParseError as e:
        return f"ParseError: {e}"


def _fuzz_inputs(lname: str, count: int = 2000) -> list[str]:
    rng = random.Random(f"lexer-fuzz-{lname}")
    programs = [gen_program(lname, GenConfig(seed=s)) for s in range(20)]
    out = []
    for _ in range(count):
        text = rng.choice(programs)
        cut = rng.randrange(min(len(text), 400) + 1)
        noise = "".join(
            rng.choice(_RARE if rng.random() < 0.04 else _ALPHABET)
            for _ in range(rng.randrange(1, 16))
        )
        tail = text[cut:cut + rng.randrange(80)] if rng.random() < 0.5 else ""
        out.append(text[:cut] + noise + tail)
    return out


def lexer_hashes(lname: str) -> dict:
    generated = [gen_program(lname, GenConfig(seed=s)) for s in range(20)]
    fuzz = [
        _lex_outcome(lname, text) + "\n" + _parse_outcome(lname, text)
        for text in _fuzz_inputs(lname)
    ]
    return {
        "generated": _sha("\n".join(repr(_tokenize(lname, t)) for t in generated)),
        "fuzz": _sha("\n".join(fuzz)),
    }


@pytest.mark.parametrize("lname", LANGS)
def test_lexer_output_pinned(lname):
    assert lexer_hashes(lname) == PINNED[lname]


def test_fuzz_alphabet_has_no_digit_int_rejects():
    for piece in _ALPHABET + _RARE:
        for c in piece:
            assert c.isdigit() == c.isdecimal(), c


# ---------------------------------------------------------------------------
# Explicit lexer cases


@pytest.mark.parametrize("lname", LANGS)
def test_eof_column_after_trailing_comment(lname):
    marker = "--" if lname == "minilua" else "//"
    # comment characters are not counted in the column
    assert _tokenize(lname, f"x {marker} note")[-1] == ("eof", "", 1, 3)
    assert _tokenize(lname, f"x {marker} note\n")[-1] == ("eof", "", 2, 1)


def test_escaped_newline_in_string_keeps_the_line():
    assert _tokenize("minijs", '"a\\\nb" x') == [
        ("string", "a\nb", 1, 1),
        ("name", "x", 1, 8),
        ("eof", "", 1, 9),
    ]


@pytest.mark.parametrize("text,col", [
    ('x "abc', 3),        # at EOF
    ('x "ab\ncd"', 3),    # at a newline
    ('x "abc\\', 3),      # a backslash as the last character
    ("x 'a\\'", 3),       # the closing quote escaped
])
def test_unterminated_string(text, col):
    with pytest.raises(ParseError, match="unterminated string") as e:
        _tokenize("minijs", text)
    assert (e.value.line, e.value.col) == (1, col)


@pytest.mark.parametrize("lname", LANGS)
def test_backslash_last_outside_a_string(lname):
    with pytest.raises(ParseError, match=r"unexpected character '\\\\'"):
        _tokenize(lname, "x \\")


@pytest.mark.parametrize("lname", LANGS)
def test_name_start_and_continuation(lname):
    # `Ⅻ` is alphanumeric but not alphabetic: it continues a name and
    # cannot start one; an Arabic-Indic digit lexes as a number.
    assert _tokenize(lname, "aⅫ ٣")[:2] == [("name", "aⅫ", 1, 1), ("num", "٣", 1, 4)]
    with pytest.raises(ParseError, match="unexpected character 'Ⅻ'"):
        _tokenize(lname, "Ⅻ")


# ---------------------------------------------------------------------------
# The scan agrees with `tokenize`


def _scanned(lname: str, text: str) -> str:
    """The values and kinds of `scan`'s texts, or its error."""
    try:
        ts = import_module(f"srctrans.langs.{lname}").scan(text, frozenset())
    except ParseError as e:
        return f"ParseError: {e}"
    return repr([(ts.kinds[tok], token_value(tok)) for tok in ts.tokens])


def _tokenized(lname: str, text: str) -> str:
    """The values and kinds of `tokenize`'s tokens, or its error."""
    try:
        return repr([(t.kind, t.value) for t in
                     import_module(f"srctrans.langs.{lname}").tokenize(text)])
    except ParseError as e:
        return f"ParseError: {e}"


@pytest.mark.parametrize("lname", LANGS)
def test_scan_agrees_with_tokenize(lname):
    generated = [gen_program(lname, GenConfig(seed=s)) for s in range(20)]
    texts = generated + _fuzz_inputs(lname) + _mutants(lname)
    refused = 0
    for text in texts:
        expected = _tokenized(lname, text)
        assert _scanned(lname, text) == expected, text
        refused += expected.startswith("ParseError")
    # both outcomes are exercised
    assert 0 < refused < len(texts)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from(LANGS), st.lists(st.sampled_from(_ALPHABET + _RARE), max_size=30))
def test_scan_agrees_with_tokenize_on_the_fuzz_alphabet(lname, pieces):
    text = "".join(pieces)
    assert _scanned(lname, text) == _tokenized(lname, text)


# ---------------------------------------------------------------------------
# Linear-time lexers

_N = 2000
_GROWTH = {
    "trailing blank lines": ("minic", lambda n: "x" + "\n" * n),
    "comment-only lines": ("minilua", lambda n: "-- note\n" * n),
    "a long run of spaces": ("minic", lambda n: "x" + " " * n),
    "a long string": ("minijs", lambda n: '"' + "a" * n + '";'),
}


def _cpu(lex, texts: list[str], reps: int) -> list[float]:
    """Per text, the least CPU time of 5 samples of `reps` calls of
    lex(text), the texts' samples taken in turn."""
    best = [float("inf")] * len(texts)
    for _ in range(5):
        for k, text in enumerate(texts):
            start = time.process_time()
            for _ in range(reps):
                lex(text)
            best[k] = min(best[k], time.process_time() - start)
    return best


@pytest.mark.parametrize("lexer", ["scan", "tokenize"])
@pytest.mark.parametrize("shape", list(_GROWTH))
def test_lexer_time_is_linear(shape, lexer):
    """Lexing an input 4 times longer takes less than 8 times the CPU
    time: a linear lexer reads about 4x (2.7-3.7x measured), one that
    tries each position of a trailing run again about 16x.  Each sample
    repeats the call often enough that the short input's takes about
    5 ms."""
    lname, make = _GROWTH[shape]
    module = import_module(f"srctrans.langs.{lname}")
    lex = module.tokenize if lexer == "tokenize" else (
        lambda text: module.scan(text, frozenset()))
    short, long = make(_N), make(4 * _N)
    start = time.process_time()
    lex(short)
    reps = max(1, int(0.005 / max(time.process_time() - start, 1e-6)))
    short_s, long_s = _cpu(lex, [short, long], reps)
    ratio = long_s / short_s
    assert ratio < 8, f"{shape}: {ratio:.1f}x the time for 4x the input"


# ---------------------------------------------------------------------------
# The term core's contract

E = Atom("E")
LIT = NodeKind("Lit", ("Int",), (), E)
ADD = NodeKind("Add", (), (E, E), E)


@dataclasses.dataclass(frozen=True)
class _Reference:
    kind: NodeKind
    payload_values: tuple
    children: tuple


def test_term_is_frozen():
    t = mk_term(LIT, (1,))
    for field in ("kind", "payload_values", "children"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, field, None)


def test_term_repr_hash_eq_match_a_frozen_dataclass():
    one = mk_term(LIT, (1,))
    t = mk_term(ADD, (), [one, mk_term(LIT, (2,))])
    ref = _Reference(ADD, (), (_Reference(LIT, (1,), ()), _Reference(LIT, (2,), ())))
    assert repr(t) == repr(ref).replace("_Reference(", "Term(")
    assert hash(one) == hash(_Reference(LIT, (1,), ()))
    assert hash(t) == hash((ADD, (), t.children))
    assert t == mk_term(ADD, (), (mk_term(LIT, (1,)), mk_term(LIT, (2,))))
    assert t != mk_term(ADD, (), (one, one))
    assert isinstance(t.children, tuple) and isinstance(t.payload_values, tuple)


@pytest.mark.parametrize("build,error,message", [
    (lambda: mk_term("Lit", (1,)), UnknownKind, "not a node kind: 'Lit'"),
    (lambda: mk_term(LIT, ()), ArityMismatch, "Lit: expected 1 payloads, got 0"),
    (lambda: mk_term(LIT, ("x",)), PayloadMismatch,
     "Lit payload 0: expected Int, got str"),
    (lambda: mk_term(LIT, (True,)), PayloadMismatch,
     "Lit payload 0: expected Int, got Bool"),
    (lambda: mk_term(ADD, (1,), ()), ArityMismatch, "Add: expected 0 payloads, got 1"),
    (lambda: mk_term(ADD, (), (mk_term(LIT, (1,)),)), ArityMismatch,
     "Add: expected 2 children, got 1"),
    # a child that is not a term has no sort to name
    (lambda: mk_term(ADD, (), (mk_term(LIT, (1,)), 2)), SortMismatch,
     "child 1: expected sort E, got a non-term"),
    (lambda: mk_term(ADD, (), (mk_term(NodeKind("F", (), (), ListOf(E))),
                               mk_term(LIT, (1,)))),
     SortMismatch, r"child 0: expected sort E, got [E]"),
    # a list names the position of the element that does not fit
    (lambda: mk_term(list_kind(E), (), (mk_term(LIT, (1,)), mk_term(LIT, (2,)),
                                        mk_term(NodeKind("G", (), (), Atom("F"))))),
     SortMismatch, "child 2: expected sort E, got F"),
    (lambda: mk_term(list_kind(E), (), [mk_term(LIT, (i,)) for i in range(3)] + ["x"]),
     SortMismatch, "child 3: expected sort E, got a non-term"),
])
def test_mk_term_rejections_keep_their_messages(build, error, message):
    with pytest.raises(error) as e:
        build()
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# Digits that `int` rejects


@pytest.mark.parametrize("lname,text,col", [
    ("minic", "int main() {\n  return 2²;\n}\n", 11),
    ("minijs", "function main() {\n  return ²;\n}\n", 10),
    ("minilua", "local x = 1\nreturn ²\n", 8),
])
def test_unicode_superscript_is_a_parse_error(lname, text, col):
    # `²` passes str.isdigit but not int(): it is not a number character
    with pytest.raises(ParseError) as e:
        get_language(lname).parse(text)
    assert str(e.value) == f"line 2, col {col}: unexpected character '²'"


@pytest.mark.parametrize("lname,text", [
    ("minic", "int main() {\n  return ٣;\n}\n"),
    ("minijs", "function main() {\n  return ٣;\n}\n"),
    ("minilua", "return ٣\n"),
])
def test_arabic_indic_digit_is_a_number(lname, text):
    lang = get_language(lname)
    assert lang.run(lang.parse(text)).events == lang.run(lang.parse(text.replace("٣", "3"))).events
