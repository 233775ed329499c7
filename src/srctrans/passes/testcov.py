"""Test-coverage instrumentation: mark every basic block.

Each basic block of every routine body gets a marker statement at its
leader position (`cov[i] = true` or `TC.cov[i] = true` depending on the
language), so running the instrumented program records exactly the blocks
on the executed path.  The block count is returned so a harness can size
the coverage array.  A program that mentions a name the markers use (`cov`
or `TC`) would capture them, so it is refused.
"""

from __future__ import annotations

from ..flow import basic_blocks, build_cfg, insert_many
from ..fragments import ASSIGN, ASSIGN_L, BLOCK, BLOCK_ITEM_L, NameSets
from ..langs.base import LanguageDef
from ..terms import Term, gc_paused
from .hoist import PassRequirements, RequirementMissing

CAN_TESTCOV = PassRequirements(
    kinds=(ASSIGN, BLOCK),
    injections=((ASSIGN_L, BLOCK_ITEM_L),),
)


@gc_paused
def testcov(term: Term, lang: LanguageDef) -> tuple[Term, int]:
    CAN_TESTCOV.check(lang, "testcov")
    names = NameSets()
    used = names(lang.adapter.make_cov_marker(0)) & names(term)
    if used:
        # every built-in marker reads one name, so this is the one it reads
        raise RequirementMissing(
            f"testcov on {lang.name}: the program uses the marker name {min(used)!r}"
        )
    blocks = basic_blocks(build_cfg(term, lang))
    requests = [
        (blk.leader, [lang.adapter.make_cov_marker(blk.id)]) for blk in blocks
    ]
    return insert_many(term, lang, requests), len(blocks)
