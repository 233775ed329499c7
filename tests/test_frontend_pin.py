"""Byte-level pin of what each frontend produces.

The hashes were measured before the frontends shared their scaffolding;
a refactor of the frontends must leave every one of them unchanged.  Per
language the test hashes the injection dump, the modularized dump, the
genericized signature's kind listing, and for twenty generated programs
plus COUNTF: the pretty output after every pass and the run events
before and after it.
"""

import hashlib

import pytest

from helpers import COUNTF
from srctrans.difftest import PASSES
from srctrans.gen import GenConfig, gen_program
from srctrans.langs.base import get_language
from srctrans.schema import dump_modularized
from srctrans.terms import sort_name

PINNED = {
    "minic": {
        "injections": "cba9f761132ea3e2027216e4738ce54ea53d19e769d72b5b4691659994c18dc6",
        "modularized": "3da5d482e10c48898f91d92abbe944b169973e87c36c9149c27569738279b83b",
        "kinds": "3162223f3d7333bacc06d017ca4f200326b678a1b7dee3d94dcefea12dbf4ba3",
        "programs": "17f23ebc6d5037263f1facd3fc61a84dcc2656f205436dce6a89f37035784efd",
    },
    "minijs": {
        "injections": "817f9c6be27a4969feb2b1f000d433c634553b384de101c3354f6c0b5012807b",
        "modularized": "0485e9bb74fdc2f5d0a346eb39f7fdee809bd7d830a7c0c92b519f40860c0e00",
        "kinds": "711a4d3e88006a9e05f4734e9dd4ddbcc5aade26b4ae384106d3619106ecd0e8",
        "programs": "d8d16f66770e7b3aa0adc40d622dd4f24954324ff1045b10370452d493eba1bd",
    },
    "minilua": {
        "injections": "1a3bcd87b9ca088f14b8720d023e4ff08786ab3d7109e9b6fd1c3279600d6121",
        "modularized": "7368646aedaca64da9b80f7dab97da77a79e1faad8efc42c90714a4706d746ee",
        "kinds": "a85697ed558e3d7a1640562b25819830490755109c64cf0fcd00c5d6d6db1824",
        "programs": "ebe1a9dc0b8995ee0fd5e1a2e35b917b3b98c601038bfcc4a895c0ee6b36d4ad",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _kinds_listing(lang) -> str:
    return "\n".join(
        f"{k.name} {k.payloads} {[sort_name(s) for s in k.child_sorts]} "
        f"{sort_name(k.produced)}"
        for k in lang.ips.kinds
    )


def _programs_listing(lname: str, lang) -> str:
    texts = [gen_program(lname, GenConfig(seed=s)) for s in range(20)]
    texts.append(COUNTF[lname])
    out = []
    for text in texts:
        ast = lang.parse(text)
        out.append(repr(lang.run(ast).events))
        term = lang.decompose(ast)
        for pname, pass_fn in PASSES.items():
            try:
                printed = lang.pretty(lang.recompose(pass_fn(term, lang)))
            except Exception as e:
                out.append(f"{pname}: {type(e).__name__}: {e}")
                continue
            out.append(printed)
            out.append(repr(lang.run(lang.parse(printed)).events))
    return "\n".join(out)


def frontend_hashes(lname: str) -> dict:
    lang = get_language(lname)
    return {
        "injections": _sha(lang.injections.dump()),
        "modularized": _sha(dump_modularized(lang.modularized)),
        "kinds": _sha(_kinds_listing(lang)),
        "programs": _sha(_programs_listing(lname, lang)),
    }


@pytest.mark.parametrize("lname", sorted(PINNED))
def test_frontend_output_pinned(lname):
    assert frontend_hashes(lname) == PINNED[lname]
