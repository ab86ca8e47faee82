"""Job lists of the benchmark workloads, generated from a seed.

A job is one call of `weilforms.cli.main(argv)` or one call of
`eisenstein.modularity_residual` on a file an earlier job wrote.  In argv,
a token `@name` stands for a generated file: a Gram matrix from GRAMS, or
the stdout of an earlier job that names it as `out`.  The job id is the
argv with these tokens left in place, so it does not depend on where the
files live, and it keys the reference outputs in reference.json.

Jobs come in units: a unit is a chain whose later jobs read a file an
earlier one wrote.  The seed shuffles the units and draws the modules that
vary; seed 0 gives the canonical order and the first choice of each draw.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

GRAMS = {
    "p2": [[2]],
    "m2": [[-2]],
    "p4": [[4]],
    "p6": [[6]],
    "m4": [[-4]],
    "m6": [[-6]],
    "a2": [[2, 1], [1, 2]],
    "ma2": [[-2, -1], [-1, -2]],
    "d5": [[-2, -1], [-1, 2]],
    "h5": [[2, 1], [1, -2]],
    "det16": [[0, 0, 2], [0, -4, 0], [2, 0, 0]],
}

# every draw the cusp_cold seed can make; the first entry is the seed-0 choice
TORSION_DRAWS = (("p2", "9/2"), ("p2", "13/2"))
DIM0_DRAWS = (("p4", "9/2", "7/8"), ("p6", "9/2", "11/12"))

# warm workloads read a --cache-dir that a separate process filled during
# set-up; the others start each job list from an empty one
WARM = ("warm_lift",)

# commands whose jobs compute local densities; these fill the warm cache
DENSITY_COMMANDS = ("eisenstein", "r-series", "cusp-basis")


@dataclass(frozen=True)
class Job:
    argv: tuple
    out: str = None            # name of the file that receives stdout
    kind: str = "cli"          # "cli" or "residual"

    @property
    def id(self):
        return " ".join(self.argv)

    @property
    def command(self):
        return self.argv[0]


def cli(*argv, out=None):
    return Job(tuple(argv), out=out)


def residual(name):
    return Job(("modularity_residual", "@" + name), kind="residual")


def r_series(gram, weight, m, beta, prec, out=None):
    return cli("r-series", "--gram", "@" + gram, "--weight", weight, "--m", m,
               "--beta", beta, "--prec", str(prec), out=out)


def cusp_basis(gram, weight, prec=10):
    return cli("cusp-basis", "--gram", "@" + gram, "--weight", weight,
               "--prec", str(prec))


def eisenstein(gram, weight, prec):
    return cli("eisenstein", "--gram", "@" + gram, "--weight", weight,
               "--prec", str(prec))


def n2_golden(prec, out="n2form"):
    return r_series("m4", "11/2", "1/8", "3", prec, out=out)


def d5_golden(prec, out="d5form"):
    return r_series("d5", "5", "1/5", "2/5,1/5", prec, out=out)


def _cusp_cold(pick):
    torsion_gram, torsion_weight = pick(TORSION_DRAWS)
    dim0_gram, dim0_weight, dim0_m = pick(DIM0_DRAWS)
    return [
        [r_series(torsion_gram, torsion_weight, "1", "0", 10)],
        [r_series(dim0_gram, dim0_weight, dim0_m, "1", 10)],
        [r_series("a2", "4", "2/3", "1", 10)],
        [cusp_basis("m4", "11/2")],
        [cusp_basis("m4", "15/2")],
        [cusp_basis("m6", "11/2")],
        [cusp_basis("ma2", "4")],
        [cusp_basis("d5", "5")],
        [cusp_basis("h5", "5")],
    ]


def _eis_cold(pick):
    return [
        [eisenstein("det16", "5/2", 3)],
        [eisenstein("m2", "5/2", 80)],
    ]


def _warm_lift(pick):
    return [
        [eisenstein("m2", "5/2", 150)],
        [n2_golden(40),
         cli("theta-lift", "--gram", "@p4", "--input", "@n2form",
             "--weight", "5", "--bound", "17", "--format", "scalar"),
         residual("n2form")],
        [d5_golden(20),
         cli("doi-naganuma", "--d", "5", "--input", "@d5form",
             "--bound", "8"),
         residual("d5form")],
        [cli("class-identity", "--remark12", "--n-max", "1000")],
        [cli("class-identity", "--prop10", "i", "--n-max", "300")],
        [cli("weight3", "--n", "5", "--prec", "60")],
    ]


def _smoke(pick):
    return [
        [cli("hurwitz", "--d", "12")],
        [n2_golden(4), residual("n2form")],
    ]


JOB_LISTS = {
    "cusp_cold": _cusp_cold,
    "eis_cold": _eis_cold,
    "warm_lift": _warm_lift,
    "smoke": _smoke,
}


def jobs(workload, seed):
    """The seeded job list of a workload."""
    if seed == 0:
        units = JOB_LISTS[workload](lambda options: options[0])
    else:
        rng = random.Random("%s/%d" % (workload, seed))
        units = JOB_LISTS[workload](rng.choice)
        rng.shuffle(units)
    return [job for unit in units for job in unit]


def fill_jobs(job_list):
    """The jobs that compute densities: running them fills the cache."""
    return [job for job in job_list if job.command in DENSITY_COMMANDS]


def cache_state(workload):
    if workload in WARM:
        return "warm: --cache-dir filled by a separate process in set-up"
    return "cold: empty --cache-dir per job list"


def scale_precs(workload):
    """Precisions of the rank-1 scaling series."""
    return (2, 4) if workload == "smoke" else (10, 20, 40, 80)


def scale_jobs(workload):
    return [eisenstein("m2", "5/2", prec) for prec in scale_precs(workload)]


def every_job():
    """Each job any seed can draw, once, plus the scaling series."""
    seen = {}
    draws = [(t, d) for t in TORSION_DRAWS for d in DIM0_DRAWS]
    for workload, make in JOB_LISTS.items():
        for t, d in draws:
            picks = iter((t, d))
            for unit in make(lambda _: next(picks)):
                for job in unit:
                    seen.setdefault(job.id, job)
        for job in scale_jobs(workload):
            seen.setdefault(job.id, job)
    return list(seen.values())


def write_grams(job_list, directory):
    """Write the Gram files the jobs name; return the token -> path map."""
    names = {tok[1:] for job in job_list for tok in job.argv
             if tok.startswith("@") and tok[1:] in GRAMS}
    paths = {}
    for name in sorted(names):
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            json.dump({"gram": GRAMS[name]}, fh)
        paths[name] = path
    for job in job_list:
        if job.out:
            paths[job.out] = os.path.join(directory, job.out + ".out.json")
    return paths


def resolve(job, paths):
    return [paths[tok[1:]] if tok.startswith("@") else tok for tok in job.argv]
