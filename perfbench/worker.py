"""Run one workload in this (fresh) interpreter and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode timed|traced

`timed` builds the inputs and runs passes over them until S seconds have
gone by (at least MIN_PASSES); each pass gets freshly built inputs, so
every build is one set-up sample and no pass sees objects an earlier pass
warmed.  After timing, the first pass is verified (oracles, output
digest).  Every item is checked on every pass, but `attempted` and
`failed` count distinct items (an item is failed if it is wrong on any
pass), so they do not depend on how many passes fit in S seconds.
`traced` builds once and runs one pass with the layer tracer
installed, so its call counts repeat exactly for a seed.

The workload runs single-threaded in this process; run.py starts it with
PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import argparse
import gc as pygc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import calibrate
from itemtypes import Verdict, combine

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {"bracket-lift": "bracket_lift", "lift-dense": "lift_dense",
             "script": "script_sessions"}
MIN_PASSES = 5
DIGESTS = os.path.join(HERE, "digests.json")


class Raised:
    """Result of an item that raised instead of answering."""

    def __init__(self, text: str):
        self.text = text


def load(workload: str):
    return importlib.import_module(WORKLOADS[workload])


def run_pass(wl, cases: list, tracer=None, calibrate_every: int = 0):
    """Run every item once.

    Returns (results, item latencies, wall seconds, calibration samples).
    With calibrate_every > 0, a calibration sample runs after every that
    many items; its time is kept out of the wall and the latencies.
    """
    clock = time.perf_counter
    results, latencies, samples = [], [], []
    n = 0
    start = clock()
    for c, case in enumerate(cases):
        if tracer is not None:
            tracer.item = -(c + 1)
        state = wl.prologue(case)
        for item in case.items:
            if tracer is not None:
                tracer.item = n
            t0 = clock()
            try:
                result = wl.run(case, item, state)
            except Exception:  # an item that raises is a failed item, not a crash
                result = Raised(traceback.format_exc(limit=4))
            latencies.append(clock() - t0)
            results.append(result)
            n += 1
            if calibrate_every and n % calibrate_every == 0:
                samples.append(calibrate.sample_s())
    return results, latencies, clock() - start - sum(samples), samples


def check_pass(wl, cases: list, results: list, reference: list | None) -> dict:
    """{item index: Verdict} for every item whose answer is wrong."""
    bad = {}
    items = [(case, item) for case in cases for item in case.items]
    for n, ((case, item), result) in enumerate(zip(items, results)):
        if isinstance(result, Raised):
            bad[n] = Verdict(False, f"{item.label}: raised\n{result.text}")
            continue
        ref = reference[n] if reference is not None else None
        if isinstance(ref, Raised):
            ref = None
        verdict = wl.check(case, item, result, ref)
        if not verdict.ok:
            bad[n] = verdict
    return bad


def digest(wl, cases: list, results: list) -> str:
    h = hashlib.sha256()
    items = [(case, item) for case in cases for item in case.items]
    for (case, item), result in zip(items, results):
        text = f"{item.label}\traised" if isinstance(result, Raised) \
            else wl.canonical(case, item, result)
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def environment(root: str) -> dict:
    import gradcalc
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    src = os.path.dirname(gradcalc.__file__)
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    flags = sys.flags
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "gradcalc_version": gradcalc.__version__,
        "gradcalc_path": os.path.relpath(src, root),
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "gc_enabled": pygc.isenabled(),
        "flags": {"optimize": flags.optimize, "dev_mode": flags.dev_mode,
                  "no_site": flags.no_site, "ignore_environment": flags.ignore_environment,
                  "hash_randomization": flags.hash_randomization,
                  "dont_write_bytecode": flags.dont_write_bytecode},
        "tracer_active_at_start": sys.gettrace() is not None,
        "profiler_active_at_start": sys.getprofile() is not None,
    }


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _report(failures: dict) -> tuple:
    """(failed count, only defect reproductions?, listing) from {key: Verdict}."""
    listing = []
    for verdict in failures.values():
        line = verdict.detail.splitlines()[0] if verdict.detail else "failed"
        if verdict.defect:
            line += f"  [reproduces {verdict.defect}]"
        if line not in listing:
            listing.append(line)
    only_defects = all(v.defect for v in failures.values())
    return len(failures), only_defects, listing


def measure(workload: str, seed: int, seconds: float, workdir: str,
            corrupt: bool = False, size: int | None = None) -> dict:
    """The timed mode; returns the result document.

    Each pass's raw times (its build, its wall and its own item-latency
    quantiles) are scaled to reference seconds by the median of the
    calibration samples taken during that pass (see calibrate.py); every
    reported time is the median of those over passes.
    """
    wl = load(workload)
    size_kw = {} if size is None else {"size": size}
    clock = time.perf_counter
    builds, walls, p50s, p90s, cals, raw_walls = [], [], [], [], [], []
    failures: dict = {}  # item index -> its distinct wrong verdicts over passes

    def note(n: int, verdict: Verdict) -> None:
        if verdict not in failures.setdefault(n, []):
            failures[n].append(verdict)

    first = None
    every = 0
    calibrate._loop()
    begin = clock()
    while True:
        t0 = clock()
        cases = wl.build(seed, workdir=workdir, **size_kw)
        build = clock() - t0
        if corrupt:
            wl.corrupt(cases)
        if not every:
            every = max(1, sum(len(c.items) for c in cases) // calibrate.SAMPLES_PER_PASS)
        results, lats, wall, samples = run_pass(wl, cases, calibrate_every=every)
        cal = statistics.median(samples)
        k = calibrate.scale(cal)
        cals.append(cal)
        raw_walls.append(wall)
        builds.append(k * build)
        walls.append(k * wall)
        p50s.append(1000.0 * k * _quantile(lats, 0.50))
        p90s.append(1000.0 * k * _quantile(lats, 0.90))
        reference = first[1] if first is not None else None
        for n, verdict in check_pass(wl, cases, results, reference).items():
            note(n, verdict)
        if first is None:
            first = (cases, results)
        elapsed = clock() - begin
        if (elapsed >= seconds and len(walls) >= MIN_PASSES) or elapsed >= 3 * seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for n, verdict in wl.verify(*first).items():
        note(n, verdict)
    got_digest = digest(wl, *first)
    # digests are recorded for the full-size workloads only
    want_digest = recorded_digest(workload, seed) if size is None else None
    failed, only_defects, listing = _report(
        {n: combine(verdicts) for n, verdicts in failures.items()})
    items_per_pass = len(first[1])
    wall = statistics.median(walls)
    return {
        "mode": "timed",
        "correct": only_defects and want_digest in (None, got_digest),
        "attempted": items_per_pass,
        "failed": failed,
        "failures": listing[:50],
        "digest": got_digest,
        "digest_recorded": want_digest,
        "passes": len(walls),
        "items_per_pass": items_per_pass,
        "raw_pass_wall_s": raw_walls,
        "calibration_s": cals,
        "metrics": {
            "build_s": statistics.median(builds),
            "wall_s": wall,
            "items_per_s": items_per_pass / wall,
            "item_ms.p50": statistics.median(p50s),
            "item_ms.p90": statistics.median(p90s),
            "peak_rss_mb": peak_rss_mb,
        },
    }


def traced(workload: str, seed: int, workdir: str, span_dir: str | None,
           size: int | None = None) -> dict:
    """The traced mode: one set-up and one pass under the layer tracer.

    Self times are raw seconds; the pass wall is also given in reference
    seconds so that it compares with the timed mode's."""
    from tracer import PER_LAYER_UNITS, Tracer, layer_metrics
    wl = load(workload)
    size_kw = {} if size is None else {"size": size}
    tr = Tracer()
    clock = time.perf_counter
    calibrate._loop()
    cals = [calibrate.calibration_s()]
    tr.install()
    try:
        begin = clock()
        cases = wl.build(seed, workdir=workdir, **size_kw)
        results, _, wall, _ = run_pass(wl, cases, tr)
        end = clock()
    finally:
        tr.uninstall()
    cals.append(calibrate.calibration_s())
    k = calibrate.scale(statistics.median(cals))
    failed, only_defects, listing = _report(check_pass(wl, cases, results, None))
    json_bytes = wl.json_bytes(results) if hasattr(wl, "json_bytes") else 0
    values = layer_metrics(tr, begin, end, json_bytes)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items() if name in values}
    if span_dir:
        tr.write_spans(span_dir)
    return {
        "mode": "traced",
        "correct": only_defects,
        "attempted": len(results),
        "failed": failed,
        "failures": listing[:50],
        "spans": len(tr.span_start),
        "pass_wall_s": wall * k,
        "raw_pass_wall_s": wall,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "traced"), default="timed")
    ap.add_argument("--root", default=".")
    ap.add_argument("--span-dir", default=None)
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    env = environment(root)
    if env["tracer_active_at_start"] or env["profiler_active_at_start"]:
        print("worker: warning: a tracer or profiler is active; timings are skewed",
              file=sys.stderr)
    workdir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    try:
        if args.mode == "timed":
            doc = measure(args.workload, args.seed, args.seconds, workdir)
        else:
            doc = traced(args.workload, args.seed, workdir, args.span_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc["env"] = env
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
