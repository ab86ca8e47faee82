"""Smoke test of the benchmark harness on a tiny job list.

The smoke workload runs `hurwitz --d 12` and the N=2 golden form at prec 4
through run.py, the reference check and the traced mode.
"""

import json
import os
import subprocess
import sys

import pytest

import worker
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))


def run_bench(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=150)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_is_correct_and_complete(trace, kind):
    result = run_bench(trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == declared(kind)
    if trace:
        assert result["metrics"]["classnum.hurwitz.calls"]["value"] >= 1
        assert result["metrics"]["cuspgen.r_series.calls"]["value"] == 1
        assert result["metrics"]["localdensity.density.calls"]["value"] > 0


def test_reference_check_rejects_changed_output(tmp_path):
    job = workloads.jobs("smoke", 0)[0]
    ref = {job.id: worker.sha256(b"{}\n")}
    assert worker.check(job, b"{}\n", None, 0, {}, ref) is None
    assert worker.check(job, b"{} \n", None, 0, {}, ref) is not None
    assert worker.check(job, b"{}\n", None, 3, {}, ref) is not None
    resid = workloads.residual("n2form")
    assert worker.check(resid, None, 2e-4, 0, {}, ref) is not None


def test_seed_shuffles_and_draws_within_the_recorded_jobs():
    canonical = [job.id for job in workloads.jobs("cusp_cold", 0)]
    assert canonical[0].startswith("r-series --gram @p2 --weight 9/2")
    lists = [[job.id for job in workloads.jobs("cusp_cold", s)]
             for s in range(1, 21)]
    assert any(ids != canonical for ids in lists)
    assert len({ids[0] for ids in lists}) > 1
    drawn = {i for ids in lists for i in ids} - set(canonical)
    assert drawn, "no seed drew the second module of a draw"
    every = {job.id for job in workloads.every_job()}
    for seed in range(20):
        for name in workloads.JOB_LISTS:
            assert {job.id for job in workloads.jobs(name, seed)} <= every
