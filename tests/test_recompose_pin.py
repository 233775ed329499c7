"""Pin of the values that `recompose` gives back.

The pretty-output pins would pass a change that recomposes two different
values that happen to print alike.  This one hashes the recomposed value
itself: per language, `repr(lang.recompose(pass_fn(lang.decompose(ast),
lang)))` for every pass, on the inputs of the decompose pin.  MiniC has
no `tac`, so for it the text of the exception is hashed instead.  The
hashes were measured when recompose still built a surface modular tree
and decoded it.
"""

import hashlib

import pytest

from helpers import COUNTF
from srctrans.difftest import PASSES
from srctrans.gen import gen_program
from srctrans.langs.base import get_language
from srctrans.passes.hoist import RequirementMissing
from test_decompose_pin import CONFIGS

PINNED = {
    "minic": "0c9b0ee276aaaa79d345879ce4ed80628eeadf5489e08c76f0ca4e6544e5f3f7",
    "minijs": "7a0f71fa3538827c978a866f6d20edbf88c1d4c6436bb42b358b899239c28f6c",
    "minilua": "50273c0c58373799c7cddac5c3726a357bd105644c5289509309dd5a28aef83e",
}


def recompose_hash(lname: str) -> str:
    lang = get_language(lname)
    texts = [gen_program(lname, cfg) for cfg in CONFIGS] + [COUNTF[lname]]
    h = hashlib.sha256()
    for text in texts:
        ast = lang.parse(text)
        for name, pass_fn in PASSES.items():
            try:
                out = repr(lang.recompose(pass_fn(lang.decompose(ast), lang)))
            except RequirementMissing as e:
                assert lname == "minic" and name == "tac"
                out = f"{type(e).__name__}: {e}"
            h.update(f"{name}\n{out}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("lname", sorted(PINNED))
def test_recomposed_values_pinned(lname):
    assert recompose_hash(lname) == PINNED[lname]
