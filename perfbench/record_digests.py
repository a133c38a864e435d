"""Record the output digests that timed runs compare against.

    PYTHONPATH=src python3 perfbench/record_digests.py [seed ...]

For each workload and seed, builds the inputs, runs one untimed pass and
stores the SHA-256 of the canonical outputs (rendered tensors, or each
script's JSON and exit code) in perfbench/digests.json.  A timed run on a
recorded seed fails when its digest differs, which holds every later
change to byte-identical output.  Re-record only when a change is meant
to alter the output, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import worker

DEFAULT_SEEDS = list(range(0, 21)) + [42, 1729]


def main(argv: list) -> int:
    seeds = [int(s) for s in argv] or DEFAULT_SEEDS
    try:
        with open(worker.DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    workdir = os.path.join(os.getcwd(), ".perfbench", f"record-{os.getpid()}")
    try:
        for name in worker.WORKLOADS:
            wl = worker.load(name)
            for seed in seeds:
                cases = wl.build(seed, workdir=workdir)
                results = worker.run_pass(wl, cases)[0]
                table.setdefault(name, {})[str(seed)] = worker.digest(wl, cases, results)
                print(name, seed, table[name][str(seed)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    with open(worker.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
