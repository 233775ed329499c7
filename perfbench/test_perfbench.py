"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from srctrans.difftest import PASSES, diff_one  # noqa: E402
from srctrans.fragments import BLOCK  # noqa: E402
from srctrans.langs.base import block_items, get_language, with_block_items  # noqa: E402
from srctrans.traversal import transform_bottom_up  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("nodes.decomposed", "pretty.bytes", "run.events") + tuple(
    f"{kind}.{p}" for kind in ("nodes.out", "reuse") for p in bench_run.COUNTED_PASSES
)


def _bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300, check=True, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _line(lines: list[str], prefix: str) -> str:
    return next(line for line in lines if line.startswith(prefix))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    lines, result = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"metric {name} = ") and f" {unit} (n=" in line
                   for line in lines)


def test_traced_run_matches_untraced_and_counts_repeat():
    args = ("--workload", "difftest-gen", "--seed", "4", "--seconds", "1", "--trace")
    untraced, _ = _bench(*args, "0")
    first_lines, first = _bench(*args, "1")
    _, second = _bench(*args, "1")
    digest = _line(untraced, "digest ").split()[1]
    assert _line(first_lines, "traced digest ").split()[2] == digest
    assert first["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["nodes.out.tac"]["value"] > 0


def test_same_seed_same_digest_other_seed_other_inputs():
    args = ("--workload", "interp-loops", "--seconds", "1", "--trace", "0")
    a, _ = _bench(*args, "--seed", "5")
    b, _ = _bench(*args, "--seed", "5")
    c, _ = _bench(*args, "--seed", "6")
    assert _line(a, "digest ") == _line(b, "digest ")
    assert _line(a, "digest ") != _line(c, "digest ")
    for workload in workloads.WORKLOADS:
        same = workloads.build(workload, 5, 1)
        assert same == workloads.build(workload, 5, 1)
        other = workloads.build(workload, 6, 1)
        assert {op.text for op in same}.isdisjoint({op.text for op in other})
        # within a run no op repeats, so no op finds a cache warmed by its twin
        work = [(op.kind, op.pass_name, op.text) for op in workloads.build(workload, 5, 25)]
        assert len(set(work)) == len(work)


def _drop_last_item(term, lang):
    def rewrite(t):
        if t.kind != BLOCK or len(block_items(t)) < 2:
            return None
        return with_block_items(t, block_items(t)[:-1])

    return transform_bottom_up(rewrite, term)


def _not_equal(op, pass_fn) -> bool:
    try:
        verdict = diff_one(get_language(op.lang), pass_fn, op.index, op.text,
                           op.pass_name == "testcov")
    except Exception:
        return True
    return verdict.kind != "Equal"


@pytest.mark.parametrize("trace", (False, True))
def test_wrong_pass_raises_failed_ratio_without_aborting(capsys, trace):
    pass_fns = {**PASSES, "ehoist": _drop_last_item}
    ops = workloads.build("difftest-gen", 7, 1)
    wrong = sum(_not_equal(op, pass_fns[op.pass_name]) for op in ops)
    assert 0 < wrong < len(ops)
    result = bench_run.bench("difftest-gen", 7, 1, trace, pass_fns=pass_fns)
    # every pass over the ops checks every op: a traced run makes two
    passes = 2 if trace else 1
    assert result["attempted"] == passes * len(ops)
    assert result["failed"] == passes * wrong
    assert not result["correct"]
    out = capsys.readouterr().out
    assert f"failed_ratio {wrong / len(ops):.6f} ratio " in out
    assert "FAILED #" in out and " ehoist " in out


def test_loop_templates_stay_within_fuel():
    for op in workloads.build("interp-loops", 8, 1):
        lang = get_language(op.lang)
        verdict = diff_one(lang, PASSES[op.pass_name], op.index, op.text,
                           op.pass_name == "testcov", fuel=70_000)
        assert verdict.kind == "Equal", op.label()
