"""Record the reference outputs that every benchmark run is checked against.

    python3 bench/record.py

Runs every job that any seed can draw, each in a cold cache, and writes the
SHA-256 of each stdout to bench/reference.json.  Run it only at a commit
whose outputs are known to be right: later runs require byte-identical
output, so re-recording accepts whatever the code now prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import git_commit    # noqa: E402


def main():
    run_dir = os.path.join(ROOT, ".bench_runs", "record-%d" % os.getpid())
    os.makedirs(run_dir)
    spec = {"mode": "record", "workload": None, "seed": 0,
            "job_dir": os.path.join(run_dir, "jobs"),
            "cache_dir": os.path.join(run_dir, "cache"),
            "result": os.path.join(run_dir, "result.json")}
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                        spec_path], check=True, cwd=run_dir)
        with open(spec["result"]) as fh:
            records = json.load(fh)["jobs"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    bad = [r for r in records if r["why"] and not r["why"].startswith("no reference")]
    if bad:
        raise SystemExit("jobs failed while recording: %s" % bad)
    out = {"commit": git_commit(),
           "sha256": {r["id"]: r["sha256"] for r in records if r["sha256"]}}
    with open(os.path.join(BENCH, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d outputs" % len(out["sha256"]))


if __name__ == "__main__":
    main()
