"""ribbonimm benchmark: one workload per invocation, cold caches throughout.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1

With ``--trace 0`` it runs as many cycles of passes as fit in ``--seconds``
(at least one).  A pass is a fresh interpreter (worker.py) that imports
ribbonimm and builds the workload input (the set-up), then verifies each
instance of one seeded shard in forked children of that clean state, so
every instance runs from cold caches, as one ``ribbonimm`` invocation
would, and can be repeated exactly.  A cycle runs every shard once and so
covers the workload's whole input.

Times are wall times, scaled to a reference host speed: the worker times a
fixed pure-Python probe around and inside every sample, and each sample is
scaled by REF_PROBE_S over the median of its probe times.  Other
tenants of a shared host slow everything down for seconds at a time; the
scaling cancels most of that, and an instance's time is the median of its
samples.  The unscaled figures are printed alongside.

With ``--trace 1`` it runs one traced pass of every workload, an untraced
pass of the named one for the tracing overhead, and the ``ribbonimm
sweep`` CLI at ``--jobs 1`` and ``--jobs 2``, and prints the per-layer
metrics.  Every output is checked; the last line of standard output is the
JSON result.  Exits 1 without a result when a pass cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MAX_WALL_S = 110       # start no new cycle after this, to end within 180 s
# The traced run makes its passes two at a time (fewer on one core), so
# that the named workload runs traced and untraced under the same load.
# Measuring passes run one at a time: two at once slow each other down.
CONCURRENCY = max(1, min(2, os.cpu_count() or 1))
PASS_TIMEOUT_S = 150
TAIL_BEYOND = 10       # samples the tail percentile must leave beyond it
REF_PROBE_S = 1.4e-3   # worker.probe() time on a quiet reference host

# Per-layer metrics by the workload whose traced pass reports them.
LAYER_METRICS = {
    "det-faithful": [
        "corpus.sweep_corpus.self_s",
        "shapes.shape_from_tuples.calls", "shapes.shape_from_tuples.self_s",
        "shapes.decompose.self_s",
        "symfunc.skew_schur.calls", "symfunc.skew_schur.distinct_args",
        "symfunc.skew_schur.self_s", "symfunc.skew_schur.fillings_all",
        "symfunc.skew_schur.fillings_kept",
    ],
    "immanants-n4": [
        "symfunc.SymPoly.__mul__.calls", "symfunc.SymPoly.__mul__.self_s",
        "symfunc.SymPoly.__mul__.operand_terms",
        "symfunc.determinant.self_s",
        "symfunc.expand_schur.calls", "symfunc.expand_schur.self_s",
        "tlalgebra.imm_tl.calls", "tlalgebra.imm_tl.self_s",
        "tlalgebra.imm_tl.perms_visited",
        "klbase.imm_kl.calls", "klbase.imm_kl.self_s",
        "ribbonmat.build.self_s", "ribbonmat.theorem1_harness.self_s",
    ],
    "models-crosscheck": [
        "network.covers_by_type.calls", "network.covers_by_type.self_s",
        "network.covers_by_type.covers_all",
        "network.uncross_type.calls", "network.uncross_type.self_s",
        "shuffle.tableaux_by_type.self_s",
        "shuffle.tableaux_by_type.fillings_all",
        "shuffle.tl_type.calls", "shuffle.tl_type.self_s",
        "shuffle.schur_expand_by_crystal.self_s",
    ],
    "remarks-kltable": [
        "klbase.kl_polynomials.self_s", "klbase.kl_polynomials.table_size",
    ],
}
CLI_SWEEPS = (("det", "auto"), ("1.1", "4"))  # det-faithful, immanants-n4


class BenchError(Exception):
    """A pass could not run; the benchmark prints no result."""


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def spawn(arg_lists, timeout=PASS_TIMEOUT_S) -> list:
    """Run worker.py once per argument list, all at once; return each
    run's (JSON report, spawn time), in order."""
    procs = []
    try:
        for args in arg_lists:
            cmd = [sys.executable, str(HERE / "worker.py")]
            cmd += [str(a) for a in args]
            t0 = time.monotonic()
            procs.append((cmd, t0, subprocess.Popen(
                cmd, cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)))
        out = []
        for cmd, t0, proc in procs:
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{' '.join(cmd)} timed out") from exc
            lines = stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:"
                                 f"\n{stderr[-2000:]}")
            out.append((json.loads(lines[-1]), t0))
        return out
    finally:
        for _, _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def run_passes(jobs, seed) -> list:
    """Run the passes (workload, shard, spans file or None) at once."""
    arg_lists = []
    for workload, shard, spans in jobs:
        args = ["pass", "--workload", workload, "--seed", seed,
                "--shard", shard]
        if spans:
            args += ["--trace", spans]
        arg_lists.append(args)
    reports = []
    for report, t0 in spawn(arg_lists):
        report["setup_s"] = report["setup_done"] - t0
        report["setup_ref_s"] = report["setup_s"] * REF_PROBE_S / \
            statistics.median(report["setup_probe_s"])
        for r in report["instances"]:
            for x in r["samples"]:
                x["ref_s"] = x["s"] * REF_PROBE_S / \
                    statistics.median(x["probe_s"])
        report["verify_s"] = sum(r["samples"][0]["s"]
                                 for r in report["instances"])
        reports.append(report)
    return reports


def tail(values):
    """(value, percentile, samples beyond) at the highest percentile that
    leaves TAIL_BEYOND samples beyond it; the maximum if there are fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def timing_metrics(passes, key, setup_key):
    """Set-up, throughput and per-instance times from the passes.

    Each instance's time is the median of its samples (under key).
    Throughput is the instances that passed over the sum of those times;
    set-up is the median under setup_key.
    Returns (metrics, (tail percentile, samples beyond, instance count)).
    """
    samples, passed = {}, {}
    for p in passes:
        for r in p["instances"]:
            samples.setdefault(r["id"], []).extend(
                x[key] * 1e3 for x in r["samples"])
            passed[r["id"]] = passed.get(r["id"], True) and r["ok"]
    best = {i: statistics.median(v) for i, v in samples.items()}
    tail_ms, pct, beyond = tail(best.values())
    busy_s = sum(best.values()) / 1e3
    return {
        "setup_s": (statistics.median(p[setup_key] for p in passes), "s"),
        "instances_per_s": (sum(passed.values()) / busy_s, "1/s"),
        "instance_p50_ms": (statistics.median(best.values()), "ms"),
        "instance_tail_ms": (tail_ms, "ms"),
    }, (pct, beyond, len(best))


def descriptors(passes) -> dict:
    """Workload properties a later change may rely on."""
    mix = Counter()
    seen = set()
    for p in passes:
        for r in p["instances"]:
            if r["id"] not in seen:
                seen.add(r["id"])
                mix[r["bucket"]] += 1
    stats = Counter()
    for p in passes:
        for r in p["instances"]:
            stats.update(r["samples"][0]["skew_schur"])
    calls, distinct = stats["calls"], stats["distinct_args"]
    fill_all, fill_kept = stats["fillings_all"], stats["fillings_kept"]
    return {
        "instance_mix": dict(sorted(mix.items())),
        "skew_schur_calls": calls,
        "skew_schur_cache_share": 1 - distinct / calls if calls else None,
        "fillings_kept_share": fill_kept / fill_all if fill_all else None,
    }


def count_failures(passes):
    records = [r for p in passes for r in p["instances"]]
    bad = [r for r in records if not r["ok"]]
    for r in bad[:5]:
        print(f"FAILED {r['id']}: {r['error']}")
    return len(records), len(bad)


def measure(name, seed, seconds):
    workload = WORKLOADS[name]
    passes = []
    start = time.monotonic()
    cycles = 0
    while True:
        for shard in range(workload.parts):
            passes += run_passes([(name, shard, None)], seed)
        cycles += 1
        elapsed = time.monotonic() - start
        # another cycle only if it fits in the measuring time at the mean
        # cycle time so far
        if elapsed * (cycles + 1) / cycles > min(seconds, MAX_WALL_S):
            break

    attempted, failed = count_failures(passes)
    metrics, (pct, beyond, n) = timing_metrics(passes, "ref_s", "setup_ref_s")
    wall, _ = timing_metrics(passes, "s", "setup_s")
    metrics["peak_rss_mb"] = (max(x["maxrss_kb"] for p in passes
                                  for r in p["instances"]
                                  for x in r["samples"]) / 1024, "MB")
    print(f"workload {name}, seed {seed}: {len(passes)} passes in {cycles} "
          f"cycles, {attempted} instance runs over "
          f"{n} instances, {time.monotonic() - start:.1f} s")
    for key, (value, unit) in metrics.items():
        extra = f"  (unscaled {wall[key][0]:.6g})" if key in wall else ""
        print(f"  {key:<18} {value:.6g} {unit}{extra}")
    print(f"  tail = p{pct:.1f} of {n} per-instance medians "
          f"({beyond} beyond it)")
    print(f"  failed_share       {failed}/{attempted} = "
          f"{failed / attempted:.6g}")
    print("descriptors: " + json.dumps(descriptors(passes), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{name}-seed{seed}.json").write_text(json.dumps(passes))
    return attempted, failed, metrics


def module_self_times(layers) -> dict:
    out = Counter()
    for name, st in layers.items():
        out[name.split(".")[0]] += st["self_s"]
    return out


def trace(name, seed):
    OUT.mkdir(exist_ok=True)
    # the named workload runs traced and untraced side by side, so the
    # overhead compares passes made under the same load
    order = [name] + [w for w in WORKLOADS if w != name]
    jobs = [(w, 0, OUT / f"spans-{w}-seed{seed}.jsonl") for w in order]
    jobs.insert(1, (name, 0, None))
    reports = []
    for k in range(0, len(jobs), CONCURRENCY):
        reports += run_passes(jobs[k:k + CONCURRENCY], seed)
    plain = reports.pop(1)
    traced = dict(zip(order, reports))
    for wname in WORKLOADS:
        layers = traced[wname]["layers"]
        top = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:5]
        print(f"traced {wname}: verify {traced[wname]['verify_s']:.3f} s; "
              "largest self times: " + ", ".join(
                  f"{k} {v['self_s']:.3f} s" for k, v in top))
        mods = module_self_times(layers)
        print("  self time by module: " + ", ".join(
            f"{m} {s:.3f} s" for m, s in mods.most_common()))
    overhead = traced[name]["verify_s"] - plain["verify_s"]
    print(f"tracing overhead on {name}: {overhead:.3f} s "
          f"({traced[name]['verify_s']:.3f} s traced, "
          f"{plain['verify_s']:.3f} s untraced)")

    det_layers = traced["det-faithful"]["layers"]
    largest = max(det_layers, key=lambda k: det_layers[k]["self_s"])
    print(f"check: largest self time on det-faithful is {largest}")
    mods = module_self_times(traced["models-crosscheck"]["layers"])
    print(f"check: models-crosscheck network+shuffle self "
          f"{mods['network'] + mods['shuffle']:.3f} s vs symfunc "
          f"{mods['symfunc']:.3f} s")

    attempted, failed = count_failures(list(traced.values()) + [plain])
    metrics = {}
    for wname, names in LAYER_METRICS.items():
        layers = traced[wname]["layers"]
        for metric in names:
            func, stat = metric.rsplit(".", 1)
            metrics[metric] = (layers.get(func, {}).get(stat, 0),
                               unit_of(metric))

    jobs2 = min(2, os.cpu_count() or 1)
    cli = Counter()
    for theorem, nvars in CLI_SWEEPS:
        runs = {}
        for jobs in sorted({1, jobs2}):
            out = OUT / f"cli-{theorem}-jobs{jobs}.json"
            [(runs[jobs], _)] = spawn([["cli", "--theorem", theorem,
                                        "--nvars", nvars, "--jobs", jobs,
                                        "--out", out]])
        attempted += len(runs)
        same = runs[1]["sha256"] == runs[jobs2]["sha256"]
        ok = [r["exit_code"] == 0 for r in runs.values()]
        failed += (not same) + ok.count(False)
        print(f"cli sweep --theorem {theorem} --nvars {nvars}: "
              f"{runs[1]['count']} instances, jobs 1 "
              f"{runs[1]['wall_s']:.3f} s, jobs {jobs2} "
              f"{runs[jobs2]['wall_s']:.3f} s, corpus "
              f"{runs[1]['corpus_s']:.3f} s, payloads "
              f"{'identical' if same else 'DIFFER'}")
        cli["jobs1_s"] += runs[1]["wall_s"]
        cli["jobs2_s"] += runs[jobs2]["wall_s"]
        cli["corpus_s"] += runs[1]["corpus_s"]
    for stat, value in cli.items():
        metrics[f"cli.sweep.{stat}"] = (value, "s")
    metrics["trace.overhead_s"] = (overhead, "s")

    (OUT / f"trace-summary-{name}-seed{seed}.json").write_text(json.dumps(
        {w: p["layers"] for w, p in traced.items()}, indent=1,
        sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<42} {value:.6g} {unit}")
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace:
        names = names[:1]  # a traced run covers every workload
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            if args.trace:
                a, f, m = trace(name, args.seed)
            else:
                a, f, m = measure(name, args.seed, args.seconds)
            attempted, failed = attempted + a, failed + f
            metrics.update(m if len(names) == 1 else
                           {f"{name}.{k}": v for k, v in m.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
