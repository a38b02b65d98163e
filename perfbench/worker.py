"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py pass --workload NAME --seed N --shard I \
        [--size full|smoke] [--trace SPANS_FILE]
    python3 perfbench/worker.py cli --theorem T --nvars V --jobs J --out FILE

``pass`` imports ribbonimm from the checkout's ``src`` and builds the
workload input (the set-up).  It then runs each instance of its shard in
forked children of that state, so every run starts from cold caches, times
it by the wall clock with host-speed probes around and inside it, and
judges the output outside the timed region.  (The process CPU clock is too
coarse on some virtual machines to time a millisecond, and does not
advance inside a signal handler.)  ``cli`` times one ``ribbonimm sweep``
through ``ribbonimm.cli.main``.  Both print one JSON object as the last
line of standard output; the clock is ``time.monotonic``, which is shared
between processes, so the caller can time the set-up from its spawn.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
# An untraced pass repeats each instance, each time in a fresh fork, until
# it has MAX_REPEATS samples or the workload's repeat_s of run time.
MAX_REPEATS = 9
# Host-speed probes run before and after every sample and, from a CPU-time
# timer, every TICK_S inside it; their time is taken off the sample's.
TICK_S = 0.05


def load_program():
    """Import ribbonimm from this checkout's src, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ribbonimm

    if Path(ribbonimm.__file__).resolve().parent != src / "ribbonimm":
        raise SystemExit(f"ribbonimm imported from {ribbonimm.__file__}, "
                         f"not from {src}")
    return ribbonimm


def probe() -> float:
    """Seconds of a fixed pure-Python loop of the tuple, sort and dict work
    that ribbonimm spends its time in; a host slowdown shows in it, a
    program change does not."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(3000):
        key = tuple(sorted((i % 7, i % 5, i % 3), reverse=True))
        acc[key] = acc.get(key, 0) + i
    return time.perf_counter() - t0


def probes(n=2) -> list:
    return [probe() for _ in range(n)]



def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def in_child(fn):
    """fn() in a forked child; returns the JSON value it returned.

    The child starts from this process's exact state, so each call sees
    the same caches however often it repeats, and nothing it caches
    reaches a later call.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller
        code = 0
        try:
            os.close(read_fd)
            data = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status or not data:
        raise RuntimeError(f"instance process ended with status {status}")
    return json.loads(data)


def run_pass(args) -> dict:
    start_probes = probes(5)
    load_program()
    sys.path.insert(0, str(HERE))
    import tracing
    from workloads import WORKLOADS, result_digest, select

    schur_calls = tracing.count_skew_schur()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]
    items = workload.setup(args.size)
    shard = select(workload, items, args.seed)[args.shard]
    setup_done = time.monotonic() - sum(start_probes)
    setup_probes = start_probes + probes(10)
    expected = json.loads(EXPECTED.read_text()).get(workload.name, {})
    if tracer:
        tracer.active = False
    # the forked children share this state; keep their collector off it
    gc.freeze()

    def sample(inst):
        """Run one instance, then judge it outside the timed region."""
        schur_calls.clear()
        if tracer:
            tracer.reset(inst.id)
        error = digest = None
        ticks = []  # probes run during the instance, every TICK_S of CPU
        if not tracer:
            signal.signal(signal.SIGPROF, lambda *_: ticks.append(probe()))
            signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            out = inst.run()
        except Exception as exc:  # any raised error fails the instance
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_PROF, 0)
        ticked = list(ticks)
        elapsed -= sum(ticked)
        if tracer:
            tracer.active = False
        if error is None:
            try:
                ok, result = inst.judge(out)
                digest = result_digest(result)
            except Exception as exc:  # output of an unexpected form
                error = f"judging raised {type(exc).__name__}: {exc}"
            else:
                if not ok:
                    error = "correctness gate failed"
                elif digest != expected.get(inst.id):
                    error = "result digest differs from the recorded one"
        rec = {"s": elapsed, "probe_s": ticked,
               "error": error, "digest": digest,
               "maxrss_kb": maxrss_kb(),
               "skew_schur": tracing.skew_schur_stats(schur_calls)}
        if tracer:
            rec["layers"] = tracer.layer_stats()
            if rec["skew_schur"]["calls"]:
                rec["layers"]["symfunc.skew_schur"].update(rec["skew_schur"])
            rec["spans"] = tracer.spans
        return rec

    records = []
    for inst in workload.instances(shard):
        samples = []
        while not samples or (
                not tracer and len(samples) < MAX_REPEATS
                and sum(x["s"] for x in samples) < workload.repeat_s):
            before = probes()
            samples.append(in_child(lambda: sample(inst)))
            samples[-1]["probe_s"] += before + probes()
        errors = [x["error"] for x in samples if x["error"]]
        records.append({"id": inst.id, "bucket": inst.bucket,
                        "ok": not errors, "error": errors[0] if errors
                        else None, "samples": samples})

    report = {"setup_done": setup_done, "setup_probe_s": setup_probes,
              "instances": records}
    if tracer:
        report["layers"] = merge_traces(tracer, records, args.trace)
    return report


def merge_traces(tracer, records, path) -> dict:
    """Fold the children's spans and layer stats into this process's set-up
    trace, write every span to path and return the summed layer stats."""
    layers = tracer.layer_stats()
    for rec in records:
        for x in rec["samples"]:
            offset = len(tracer.spans)
            tracer.spans += [[n, t0, t1, p + offset if p >= 0 else -1, i]
                             for n, t0, t1, p, i in x.pop("spans")]
            for name, stats in x.pop("layers").items():
                entry = layers.setdefault(name, {})
                for key, value in stats.items():
                    entry[key] = entry.get(key, 0) + value
    tracer.write(path)
    return layers


def run_cli(args) -> dict:
    load_program()
    sys.path.insert(0, str(HERE))
    from workloads import PER_BUCKET
    from ribbonimm import cli

    corpus_s = []
    build_corpus = cli.sweep_corpus

    def timed_corpus(*a, **kw):
        t0 = time.perf_counter()
        try:
            return build_corpus(*a, **kw)
        finally:
            corpus_s.append(time.perf_counter() - t0)

    cli.sweep_corpus = timed_corpus
    argv = ["sweep", "--max-cells", "8", "--max-window", "5", "--max-ell",
            "4", "--per-bucket", str(PER_BUCKET["full"]),
            "--theorem", args.theorem, "--nvars", args.nvars,
            "--jobs", str(args.jobs), "--json", "--full-report",
            "--out", args.out]
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    payload = Path(args.out).read_bytes()
    return {"exit_code": code, "wall_s": wall, "corpus_s": sum(corpus_s),
            "count": json.loads(payload)["count"],
            "sha256": hashlib.sha256(payload).hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shard", type=int, required=True)
    p.add_argument("--size", choices=["full", "smoke"], default="full")
    p.add_argument("--trace")
    p.set_defaults(func=run_pass)
    p = sub.add_parser("cli")
    p.add_argument("--theorem", required=True)
    p.add_argument("--nvars", required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=run_cli)
    args = ap.parse_args(argv)
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
