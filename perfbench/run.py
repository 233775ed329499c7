"""Layer-by-layer benchmark of the srctrans pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload difftest-gen --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process, one thread, a closed loop: each op starts when the previous
one ends.  The ops come from `workloads.build(workload, seed, seconds)`,
which sizes them so that one pass takes about 0.8 x --seconds on the
reference host.  --trace 0 times one pass: every op runs once, no two
ops pair the same input with the same pass, and every op is checked.  It
prints the end-to-end metrics.

--trace 1 makes one untraced pass and then one traced pass over the same
ops, checks both, checks that they give the same verdicts and texts, and
prints the per-layer metrics and the tracing overhead.  Spans are written
to .perfbench/ when the run ends.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Exit status
is 0 whenever the run completed, also when ops failed: failures are
counted, reported and never abort the batch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_PROBE_S, factors, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_LAUNCHES = 15
MAX_REPORTED_FAILURES = 20

# Layers with self time, share and time per node, named after modules.
LAYERS = (
    "parse", "to_modular", "trans_ips", "pass.ehoist", "pass.hoist",
    "pass.testcov", "pass.tac", "untrans_ips", "from_modular", "pretty",
    "run", "compare", "cfg",
)
# Layers that also get time per node for each language.
LANG_LAYERS = ("parse", "to_modular", "trans_ips", "untrans_ips", "from_modular", "run")
COUNTED_PASSES = ("ehoist", "hoist", "testcov", "tac")

# Runs in a fresh interpreter: imports srctrans and loads the three
# languages, timing each step, with host speed probes right before and
# after.  minilua imports part of minijs, so each language's figure is
# what importing it adds to those before it.
SETUP_PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[2])
from hostspeed import median, probe
before = median([probe() for _ in range(3)])
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import srctrans, srctrans.langs.base
marks = {"core": time.perf_counter()}
import srctrans.langs.minic
marks["minic"] = time.perf_counter()
import srctrans.langs.minijs
marks["minijs"] = time.perf_counter()
import srctrans.langs.minilua
marks["minilua"] = time.perf_counter()
for name in ("minic", "minijs", "minilua"):
    srctrans.langs.base.get_language(name)
t1 = time.perf_counter()
after = median([probe() for _ in range(3)])
prev, out = t0, {"total": t1 - t0, "slowdown": (before + after) / 2}
for name, t in marks.items():
    out[name] = t - prev
    prev = t
print(json.dumps(out))
"""


def setup_sample() -> dict:
    """Seconds of each setup step in one fresh interpreter, and the host
    slowdown that its own probes measured.

    -I -S keeps environment variables, user site and `site` out, so the
    figure covers srctrans and the standard modules it imports.
    """
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SETUP_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    sample = json.loads(proc.stdout)
    sample["slowdown"] /= REFERENCE_PROBE_S
    return sample


class Run:
    """Latencies, digests and failures of the ops of one run."""

    def __init__(self, ops, pass_fns):
        self.ops = ops
        self.pass_fns = pass_fns
        self.latencies: list[float] = []  # per op, of the untraced pass
        self.slowdown: list[float] = []  # host slowdown around each of them
        self.keys: list[str] = [""] * len(ops)  # per op, of the latest pass
        self.setup: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, op, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{op.label()}: {problem}")

    def digest(self) -> str:
        return hashlib.sha256("".join(self.keys).encode()).hexdigest()[:16]

    def normalized(self) -> list[float]:
        """Each op's latency scaled to the reference host."""
        return [t / f for t, f in zip(self.latencies, self.slowdown)]

    def setup_s(self, step: str, scaled: bool = True) -> list[float]:
        """Seconds of one setup step in each launch, scaled to the
        reference host unless `scaled` is false."""
        return [s[step] / (s["slowdown"] if scaled else 1.0) for s in self.setup]

    def untraced(self) -> None:
        """One timed pass over all ops, each checked after its timing.

        The setup launches are spread evenly between the ops, so that a
        burst of load on the host can spoil only a few of them.
        """
        from pipeline import attempt, check, result_key, run_op

        launch_at = {i * len(self.ops) // SETUP_LAUNCHES for i in range(SETUP_LAUNCHES)}
        probes = []
        for op in self.ops:
            if op.index in launch_at:
                self.setup.append(setup_sample())
            probes.append(probe())
            t0 = time.perf_counter()
            r = attempt(run_op, op, self.pass_fns.get(op.pass_name))
            self.latencies.append(time.perf_counter() - t0)
            self.attempted += 1
            self.keys[op.index] = result_key(op, r)
            problem = check(op, r)
            if problem:
                self.fail(op, problem)
        probes.append(probe())
        self.slowdown = factors(probes)

    def traced(self):
        """One traced pass; each op must reproduce the untraced result.

        Returns the spans, the exact counts, each op's decomposed node
        count and the host slowdown around each op.
        """
        from pipeline import Counts, Tracer, attempt, check, result_key, run_op_traced

        reference = list(self.keys)
        tr = Tracer()
        counts = Counts()
        nodes = [0] * len(self.ops)
        probes = []
        for op in self.ops:
            probes.append(probe())
            r = attempt(run_op_traced, op, self.pass_fns.get(op.pass_name), tr)
            self.attempted += 1
            nodes[op.index] = counts.add(op, r)
            self.keys[op.index] = result_key(op, r)
            problem = check(op, r)
            if not problem and self.keys[op.index] != reference[op.index]:
                problem = "traced output differs from the untraced run"
            if problem:
                self.fail(op, problem)
        probes.append(probe())
        return tr, counts, nodes, factors(probes)


def _quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(lat: list[float], setup: list[float], prefix: str = "") -> dict:
    """The timed end-to-end metrics of op latencies and setup times."""
    return {
        f"{prefix}setup_s": (statistics.median(setup), "s", len(setup)),
        f"{prefix}ops_per_s": (len(lat) / sum(lat), "op/s", len(lat)),
        f"{prefix}op_ms.p50": (1000 * statistics.median(lat), "ms", len(lat)),
        f"{prefix}op_ms.p90": (1000 * _quantile(lat, 90), "ms", len(lat)),
    }


def end_to_end(run: Run) -> dict:
    m = timings(run.normalized(), run.setup_s("total"))
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return m


def per_layer(run: Run, tr, counts, nodes, slowdown) -> dict:
    ops = run.ops
    self_times = tr.self_times()
    op_times = [end - start for name, start, end, _, _ in tr.spans if name == "op"]
    op_time = sum(op_times)
    n_ops = len(ops)
    layer_total: dict[str, float] = {}
    # (layer, op) -> self time, for the per-node figures
    per_op: dict[tuple, float] = {}
    for (name, _, _, _, op_index), own in zip(tr.spans, self_times):
        layer_total[name] = layer_total.get(name, 0.0) + own
        per_op[name, op_index] = per_op.get((name, op_index), 0.0) + own

    def us_per_node(layer: str, lang: str = "") -> float:
        vals = [
            1e6 * t / nodes[i]
            for (name, i), t in per_op.items()
            if name == layer and nodes[i] and (not lang or ops[i].lang == lang)
        ]
        return statistics.median(vals) if vals else 0.0

    m = {}
    for layer in LAYERS:
        total = layer_total.get(layer, 0.0)
        m[f"{layer}.self_s"] = (total, "s", n_ops)
        m[f"{layer}.share"] = (total / op_time, "ratio", n_ops)
        m[f"{layer}.us_per_node"] = (us_per_node(layer), "us", n_ops)
    for layer in LANG_LAYERS:
        for lang in ("minic", "minijs", "minilua"):
            m[f"{layer}.{lang}.us_per_node"] = (us_per_node(layer, lang), "us", n_ops)
    m["op.share"] = (layer_total.get("op", 0.0) / op_time, "ratio", n_ops)
    m["nodes.decomposed"] = (counts.decomposed, "count", n_ops)
    for p in COUNTED_PASSES:
        out = counts.out.get(p, 0)
        m[f"nodes.out.{p}"] = (out, "count", n_ops)
        m[f"reuse.{p}"] = (counts.reused.get(p, 0) / out if out else 0.0, "ratio", n_ops)
    m["pretty.bytes"] = (counts.pretty_bytes, "count", n_ops)
    m["run.events"] = (counts.run_events, "count", n_ops)
    sizes = list({op.text: n for op, n in zip(ops, nodes) if n}.values()) or [0]
    m["corpus.programs"] = (len(sizes), "count", 1)
    m["corpus.nodes_median"] = (statistics.median(sizes), "count", len(sizes))
    m["corpus.nodes_max"] = (max(sizes), "count", len(sizes))
    for step in ("core", "minic", "minijs", "minilua"):
        m[f"setup.{step}_ms"] = (1000 * statistics.median(run.setup_s(step)), "ms", len(run.setup))
    # both throughputs scaled to the reference host, as the end-to-end ones are
    traced_ops_per_s = n_ops / sum(t / f for t, f in zip(op_times, slowdown))
    untraced_ops_per_s = n_ops / sum(run.normalized())
    m["trace.ops_per_s"] = (traced_ops_per_s, "op/s", n_ops)
    m["trace.untraced_ops_per_s"] = (untraced_ops_per_s, "op/s", n_ops)
    m["trace.overhead"] = (untraced_ops_per_s / traced_ops_per_s, "ratio", n_ops)
    m["trace.spans"] = (len(tr.spans), "count", n_ops)
    m["failed_ratio"] = (run.failed / run.attempted, "ratio", run.attempted)
    # the untraced pass as measured, before scaling, and the scale applied
    m.update(timings(run.latencies, run.setup_s("total", scaled=False), "unscaled."))
    m["host.slowdown"] = (statistics.median(run.slowdown), "ratio", n_ops)
    return m


def write_spans(tr, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as f:
        for i, (name, start, end, parent, op) in enumerate(tr.spans):
            f.write(json.dumps([i, name, start, end, parent, op]) + "\n")
    return path


def bench(workload: str, seed: int, seconds: float, trace: bool, pass_fns=None) -> dict:
    """One run; prints the report and returns the result object.

    `pass_fns` replaces srctrans's pass table, for tests only.
    """
    import workloads
    from srctrans.difftest import PASSES
    from srctrans.langs.base import get_language

    get_language("minic")  # loads every frontend before the first setup launch
    ops = workloads.build(workload, seed, seconds)
    run = Run(ops, PASSES if pass_fns is None else pass_fns)
    run.untraced()
    print(f"workload {workload} seed {seed}: {len(ops)} ops, "
          f"{'an untraced and a traced pass' if trace else 'one pass'}, closed loop, 1 client")
    print(f"python {platform.python_version()} nproc {os.cpu_count()}")
    host = statistics.quantiles(run.slowdown, n=4) if len(ops) > 1 else run.slowdown * 3
    print("host slowdown over the reference, quartiles " + " ".join(f"{f:.3f}" for f in host))
    print(f"digest {run.digest()}")
    if trace:
        tr, counts, nodes, slowdown = run.traced()
        metrics = per_layer(run, tr, counts, nodes, slowdown)
        print(f"traced digest {run.digest()}")
        print(f"spans written to {write_spans(tr, workload, seed)}")
    else:
        metrics = end_to_end(run)
        for name, (value, unit, n) in timings(
                run.latencies, run.setup_s("total", scaled=False), "unscaled ").items():
            print(f"{name} = {value:.6g} {unit} (n={n})")
    attempted, failed = run.attempted, run.failed
    print(f"failed_ratio {failed / attempted:.6f} ratio ({failed}/{attempted})")
    for line in run.failures:
        print(f"FAILED {line}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "srctrans").is_dir():
        print(f"perfbench: no srctrans sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
