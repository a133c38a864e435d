"""gradcalc benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bracket-lift|lift-dense|script \
        --seed N --seconds S --trace 0|1

Run it from the root of a gradcalc checkout; it measures the code in
./src.  With --trace 0 it prints the end-to-end metrics, with --trace 1
the per-layer metrics.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it records the environment and the run's details.

Each measurement runs in a fresh interpreter (perfbench/worker.py) with
default settings (GC on, no -O, no PYTHON* variables other than
PYTHONPATH=src), one process and one thread.  --trace 1 first runs an
untraced baseline, then the traced pass in a separate process, so no
wrapper leaks into timed runs.  Spans of the traced pass are written under
.perfbench/trace/.  Every process started here is waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bracket-lift", "lift-dense", "script")
END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
              "item_ms.p50": "ms", "item_ms.p90": "ms", "peak_rss_mb": "MB"}
IMPORT_PROBES = 7
WORKER_TIMEOUT_S = 150


def child_env(root: str) -> dict:
    """The caller's environment without PYTHON* settings, plus PYTHONPATH=src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def import_seconds(root: str) -> list:
    """Cumulative `import gradcalc` time from -X importtime, one per probe,
    in reference seconds (scaled by the median calibration around them)."""
    raw = []
    calibrate._loop()
    cals = [calibrate.calibration_s()]
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gradcalc"],
                              cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import gradcalc failed:\n{proc.stderr[-2000:]}")
        cals.append(calibrate.calibration_s())
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "gradcalc":
                raw.append(int(fields[1]) / 1e6)
    if len(raw) != IMPORT_PROBES:
        raise RuntimeError("no import time reported for gradcalc")
    k = calibrate.scale(statistics.median(cals))
    return [t * k for t in raw]


def worker(root: str, workload: str, seed: int, seconds: float, mode: str,
           span_dir: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--root", root]
    if span_dir:
        cmd += ["--span-dir", span_dir]
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gradcalc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gradcalc", "__init__.py")):
        print("run.py: no src/gradcalc here; run from the root of a gradcalc checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            base = worker(root, args.workload, args.seed, max(2.0, args.seconds / 2), "timed")
            span_dir = os.path.join(root, ".perfbench", "trace",
                                    f"{args.workload}-seed{args.seed}")
            doc = worker(root, args.workload, args.seed, args.seconds, "traced", span_dir)
            metrics = dict(doc["metrics"])
            metrics["trace.overhead_ratio"] = metric(
                doc["pass_wall_s"] / base["metrics"]["wall_s"], "ratio")
            runs = (base, doc)
            detail = {"spans": doc["spans"], "span_dir": os.path.relpath(span_dir, root),
                      "traced_pass_wall_s": doc["pass_wall_s"],
                      "untraced_pass_wall_s": base["metrics"]["wall_s"]}
        else:
            imports = import_seconds(root)
            doc = worker(root, args.workload, args.seed, args.seconds, "timed")
            values = dict(doc["metrics"])
            values["setup_s"] = statistics.median(imports) + values["build_s"]
            metrics = {k: metric(values[k], u) for k, u in END_TO_END.items()}
            runs = (doc,)
            detail = {"import_s": imports, "raw_pass_wall_s": doc["raw_pass_wall_s"],
                      "calibration_s": doc["calibration_s"],
                      "passes": doc["passes"], "items_per_pass": doc["items_per_pass"],
                      "digest": doc["digest"], "digest_recorded": doc["digest_recorded"]}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    failures = [line for r in runs for line in r["failures"]]
    for line in failures:
        print(f"failed item: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": doc["env"], "detail": detail, "failures": failures}))
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
