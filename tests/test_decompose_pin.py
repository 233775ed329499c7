"""Pin of the IPS tree that `decompose` builds.

The other pins hash what comes out of recompose and pretty, so a change
to the tree in between that every pass and printer happens to undo would
pass them.  This one hashes the decomposed tree itself: per language, the
s-expression of `decompose(parse(text))` and the sort of its root, for
`GenConfig` seeds 0-29 (default and shadowing), seeds 0-5 with deeper
and longer bodies, and COUNTF.  The hashes were measured before
decompose became one walk over the parsed value.
"""

import hashlib

import pytest

from helpers import COUNTF
from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language
from srctrans.terms import sort_name, to_sexpr

PINNED = {
    "minic": "15219dcfc32383c4ffacf537c50c4e3f52e97e9a477790f67a18262fdb1d388d",
    "minijs": "a3f6f416fd2420ca66c461f11ff52a2afe593061a769207d6f0334b69850c9f4",
    "minilua": "99a75eb1633e934e9853053fd3bc1d6aa7090bdc42b4e9ddcc782c5389a1c2e7",
}

CONFIGS = (
    [GenConfig(seed=s) for s in range(30)]
    + [GenConfig(seed=s, shadowing=True) for s in range(30)]
    + [GenConfig(seed=s, max_depth=7, max_stmts=7) for s in range(6)]
)


def decompose_hash(lname: str) -> str:
    lang = get_language(lname)
    texts = [gen_program(lname, cfg) for cfg in CONFIGS] + [COUNTF[lname]]
    h = hashlib.sha256()
    for text in texts:
        term = lang.decompose(lang.parse(text))
        h.update(f"{sort_name(term.sort)}\n{to_sexpr(term)}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("lname", sorted(PINNED))
def test_decomposed_tree_pinned(lname):
    assert decompose_hash(lname) == PINNED[lname]
