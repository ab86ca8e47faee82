"""Benchmark entry point: one workload, end to end or traced layer by layer.

    python3 bench/run.py --workload cusp_cold --seed 0 --seconds 10 --trace 0

Run it from anywhere: it uses the weilforms sources in src/ next to this
directory and writes only under .bench_runs/ beside them.  It is a closed
loop: one client runs the seeded job list (bench/workloads.py), job after
job, with --parallel left at 1.  Each job list runs in a fresh interpreter
(bench/worker.py), so in-process memos never carry over, and a cold list
gets an empty --cache-dir.  Lists repeat until --seconds have passed (at
least one; warm_lift at least six, two per filled cache), and each metric
is the median over them.  Every job's stdout is checked against the
SHA-256 recorded in bench/reference.json, and golden forms against the
modularity residual.

--trace 0 prints the end-to-end metrics: wall_s, slowest_job_s,
coeffs_per_s, peak_rss_mb and setup_s (fail_frac is failed / attempted in
the last line).  --trace 1 runs one untraced and one traced list and the
eisenstein prec series, and prints the per-layer metrics (tracing.py).

The last line of stdout is the result, one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it give each metric
with its unit and a JSON record of the environment and of every list run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing      # noqa: E402
import workloads    # noqa: E402

RUN_LIMIT_S = 165         # stop starting work so the run ends within 180 s
SETUP_PROBES = 5          # extra set-up samples per cold run
WARM_MIN_LISTS = 6        # warm lists are short, so take more of them
LISTS_PER_FILL = 2        # warm lists that share one filled cache

END_TO_END = [
    ("wall_s", "s"),
    ("slowest_job_s", "s"),
    ("coeffs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


class Runner:
    """Spawns workers for one run and keeps what they report."""

    def __init__(self, workload, seed, run_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.spawned = 0
        self.lists = []          # what each measured list reported
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def spawn(self, mode, cache_dir=None, spans=None):
        """Run one worker; return (seconds from spawn to exit, result)."""
        self.spawned += 1
        tag = "%s-%d" % (mode, self.spawned)
        spec = {"mode": mode, "workload": self.workload, "seed": self.seed,
                "job_dir": os.path.join(self.run_dir, tag),
                "cache_dir": cache_dir or os.path.join(self.run_dir, tag + ".cache"),
                "result": os.path.join(self.run_dir, tag + ".result.json"),
                "spans": spans}
        spec_path = os.path.join(self.run_dir, tag + ".spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "worker.py"), spec_path],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - t_spawn), cwd=self.run_dir)
            error = proc.stderr[-2000:] if proc.returncode else None
        except subprocess.TimeoutExpired:
            error = "worker %s stopped at the run's time limit" % tag
        elapsed = time.monotonic() - t_spawn
        result = None
        if error is None:
            with open(spec["result"]) as fh:
                result = json.load(fh)
            result["setup_s"] = result["t_ready"] - t_spawn
        self._count(mode, result, error)
        return elapsed, result

    def _count(self, mode, result, error):
        if result is not None:
            for rec in result.get("jobs", []):
                self._tally(rec["id"], rec["why"])
        elif mode == "setup":
            self._tally("set-up", error)
        else:
            planned = (workloads.scale_jobs(self.workload) if mode == "scale"
                       else workloads.jobs(self.workload, self.seed))
            if mode == "fill":
                planned = workloads.fill_jobs(planned)
            for job in planned:
                self._tally(job.id, error)

    def _tally(self, what, why):
        self.attempted += 1
        if why:
            self.failed += 1
            self.failures.append({"job": what, "why": why})

    def measure(self, cache_dir=None, spans=None):
        _, result = self.spawn("measure", cache_dir, spans)
        if result is not None:
            result["values"] = sum(j["values"] for j in result["jobs"])
            result["slowest_s"] = max(j["s"] for j in result["jobs"])
            self.lists.append(result)
        return result


def end_to_end(runner, seconds):
    """Repeat the job list for `seconds`; medians of the per-list figures."""
    warm = runner.workload in workloads.WARM
    setups = []
    if not warm:
        for _ in range(SETUP_PROBES):
            _, result = runner.spawn("setup")
            if result is not None:
                setups.append(result["setup_s"])
    start = time.monotonic()
    longest = 0.0
    fill_s = 0.0
    cache_dir = None
    while (len(runner.lists) < (WARM_MIN_LISTS if warm else 1)
           or time.monotonic() - start < seconds):
        if runner.lists and runner.deadline - time.monotonic() < 1.5 * longest:
            break
        t0 = time.monotonic()
        if warm and len(runner.lists) % LISTS_PER_FILL == 0:
            # the lists only read the cache, so they can share one fill
            cache_dir = os.path.join(runner.run_dir, "warm-%d" % len(runner.lists))
            fill_s, filled = runner.spawn("fill", cache_dir)
            if filled is None:
                break
        result = runner.measure(cache_dir)
        if result is None:
            break
        setups.append(fill_s + result["setup_s"])
        longest = max(longest, time.monotonic() - t0)
    lists = runner.lists
    if not lists:
        return None, {}
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in lists),
        "slowest_job_s": statistics.median(r["slowest_s"] for r in lists),
        "coeffs_per_s": statistics.median(r["values"] / r["wall_s"] for r in lists),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in lists),
        "setup_s": statistics.median(setups),
    }
    detail = {"lists": len(lists), "setup_samples": setups}
    return metrics, detail


def traced(runner):
    """One untraced and one traced list, and the prec series."""
    cache_dir = None
    if runner.workload in workloads.WARM:
        cache_dir = os.path.join(runner.run_dir, "warm")
        if runner.spawn("fill", cache_dir)[1] is None:
            return None, {}
    plain = runner.measure(cache_dir)
    spans_path = os.path.join(runner.run_dir, "spans.npz")
    with_spans = runner.measure(cache_dir, spans=spans_path)
    _, scale = runner.spawn("scale")
    if plain is None or with_spans is None or scale is None:
        return None, {}
    metrics, self_by_span = tracing.layer_metrics(spans_path)
    metrics["trace.overhead_s"] = with_spans["wall_s"] - plain["wall_s"]
    precs = workloads.scale_precs(runner.workload)
    times = [rec["s"] for rec in scale["jobs"]]
    metrics["eisenstein.prec_exponent"] = tracing.loglog_slope(precs, times)
    top = sorted(self_by_span.items(), key=lambda kv: -kv[1])[:8]
    detail = {"untraced_wall_s": plain["wall_s"],
              "traced_wall_s": with_spans["wall_s"],
              "prec_series_s": dict(zip(precs, times)),
              "top_self_s": dict(top)}
    return metrics, detail


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """The commit of the checkout, read from its own .git, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed):
    import numpy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": git_commit(),
            "seed": seed,
            "workload": workload,
            "cache_state": workloads.cache_state(workload)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.JOB_LISTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    missing = [p for p in (os.path.join(ROOT, "src", "weilforms", "cli.py"),
                           os.path.join(BENCH, "reference.json"))
               if not os.path.exists(p)]
    if missing:
        print("bench: missing %s" % ", ".join(missing), file=sys.stderr)
        return 2
    run_dir = os.path.join(ROOT, ".bench_runs", "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(run_dir)
    runner = Runner(args.workload, args.seed, run_dir, deadline)
    try:
        if args.trace:
            metrics, detail = traced(runner)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            metrics, detail = end_to_end(runner, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if metrics is None:
        print(json.dumps({"failures": runner.failures[:10]}), file=sys.stderr)
        print("bench: no job list completed", file=sys.stderr)
        return 1
    attempted = max(1, runner.attempted)
    for name in units:
        print("%-44s %16.6g %s" % (name, metrics[name], units[name]))
    print("%-44s %16.6g %s" % ("fail_frac", runner.failed / attempted, "1"))
    lists = [{"wall_s": r["wall_s"], "values": r["values"],
              "rss_mb": r["rss_mb"], "setup_s": r["setup_s"],
              "jobs_s": {j["id"]: j["s"] for j in r["jobs"]}}
             for r in runner.lists]
    print(json.dumps({"env": environment(args.workload, args.seed),
                      "trace": args.trace, "detail": detail,
                      "fail_frac": runner.failed / attempted,
                      "failures": runner.failures[:10], "lists": lists}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
