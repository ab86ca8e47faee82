"""One job list in a fresh interpreter; run by run.py, not by hand.

    python3 bench/worker.py SPEC.json

SPEC names the mode, the workload and seed, a directory for the generated
inputs, a --cache-dir and the file the result goes to.  Modes:

  setup    import weilforms and write the inputs, then stop
  fill     also run the jobs that compute densities (fills the cache)
  measure  also run the whole job list, traced if the spec says so
  scale    run the eisenstein prec series, each job with its own cache
  record   run every job any seed can draw, each with its own cache, and
           report the SHA-256 of each stdout (see record.py)

The result records the monotonic time at which set-up ended, each job's
time and verdict, the list's wall time and the peak resident memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESIDUAL_LIMIT = 1e-4
JOB_TIMEOUT_S = 90


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout("job ran longer than %d s" % JOB_TIMEOUT_S)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def exact_values(stdout):
    """Nonzero q-expansion coefficients, lift coefficients, identity rows."""
    payload = json.loads(stdout)
    if isinstance(payload, list):
        return sum(len(e["series"]["coeffs"]) if "series" in e else 1
                   for e in payload)
    if "coeffs" in payload:
        return len(payload["coeffs"])
    return 1


def run_job(job, argv, paths, cache_dir):
    """Run one job; return (stdout bytes, residual, exit code).

    The entry points are looked up at call time, so that traced runs call
    the wrappers tracing.py installed.
    """
    from weilforms import cli, eisenstein
    if job.kind == "residual":
        with open(argv[1]) as fh:
            form = eisenstein.QExpansion.from_json_dict(json.load(fh))
        return None, eisenstein.modularity_residual(form), 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(["--cache-dir", cache_dir] + argv)
        except SystemExit as exc:     # argparse rejects the arguments
            code = exc.code
    out = buf.getvalue().encode()
    if job.out:
        with open(paths[job.out], "wb") as fh:
            fh.write(out)
    return out, None, code


def check(job, out, resid, code, paths, reference):
    """The reason a finished job failed, or None."""
    if job.kind == "residual":
        return None if resid < RESIDUAL_LIMIT else "residual %.3g" % resid
    if code != 0:
        return "exit code %s" % code
    want = reference.get(job.id)
    if want is None:
        return "no reference output"
    if sha256(out) != want:
        return "stdout differs from the reference"
    if job.out:
        with open(paths[job.out], "rb") as fh:
            if sha256(fh.read()) != want:
                return "chained file differs from the reference"
    return None


def run_list(job_list, paths, cache_dir, reference):
    from workloads import resolve
    records = []
    signal.signal(signal.SIGALRM, _on_alarm)
    t_list = time.perf_counter()
    for job in job_list:
        t0 = time.perf_counter()
        signal.alarm(JOB_TIMEOUT_S)
        try:
            out, resid, code = run_job(job, resolve(job, paths), paths,
                                       cache_dir)
            error = None
        except Exception:   # a job that raises counts as failed; go on
            out = resid = code = None
            error = traceback.format_exc(limit=3)
        finally:
            signal.alarm(0)
        records.append({"id": job.id, "s": time.perf_counter() - t0,
                        "out": out, "resid": resid, "code": code,
                        "error": error})
    wall = time.perf_counter() - t_list
    for job, rec in zip(job_list, records):
        out = rec.pop("out")
        rec["why"] = rec.pop("error") or check(
            job, out, rec["resid"], rec.pop("code"), paths, reference)
        rec["values"] = exact_values(out) if out and not rec["why"] else 0
        rec["sha256"] = sha256(out) if out else None
    return wall, records


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH)
    import weilforms    # set-up includes the import
    import workloads
    src = os.path.join(ROOT, "src", "weilforms")
    if os.path.dirname(os.path.abspath(weilforms.__file__)) != src:
        raise SystemExit("weilforms imported from outside %s" % src)
    os.makedirs(spec["job_dir"], exist_ok=True)
    if spec["mode"] == "scale":
        job_list = workloads.scale_jobs(spec["workload"])
    elif spec["mode"] == "record":
        job_list = workloads.every_job()
    else:
        job_list = workloads.jobs(spec["workload"], spec["seed"])
    if spec["mode"] == "fill":
        job_list = workloads.fill_jobs(job_list)
    paths = workloads.write_grams(job_list, spec["job_dir"])
    reference = {}
    if spec["mode"] != "record":
        with open(os.path.join(BENCH, "reference.json")) as fh:
            reference = json.load(fh)["sha256"]
    result = {"t_ready": time.monotonic()}
    if spec["mode"] in ("scale", "record"):
        result["jobs"] = []
        for i, job in enumerate(job_list):
            _, records = run_list([job], paths,
                                  os.path.join(spec["cache_dir"], str(i)),
                                  reference)
            result["jobs"] += records
    elif spec["mode"] != "setup":
        tracer = None
        if spec.get("spans"):
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        result["wall_s"], result["jobs"] = run_list(
            job_list, paths, spec["cache_dir"], reference)
        if tracer is not None:
            tracer.uninstall()
            tracer.write(spec["spans"])
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
