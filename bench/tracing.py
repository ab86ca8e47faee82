"""Spans around the calls into each weilforms layer, from outside the package.

`Tracer.install()` replaces each traced function on every module global (or
class attribute) that its callers look up, for example
`cuspgen.eisenstein_qexp` and `localdensity._convolve_mod`.  A span records
its name, parent span, start, end and one work figure (operations, cells,
items returned).  Probes count and time calls without opening a span, so
the time stays with the layer that called them.

Spans stay in memory and are written out once, at the end, as an .npz file.
`layer_metrics()` reads them back and derives self times: a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name, work(args, result) or None)
SPANS = [
    ("cli", "main", "cli", None),
    ("quadmod", "discriminant_module", "quadmod.discriminant_module", None),
    ("quadmod", "module_dual_coset", "quadmod.module_dual_coset", None),
    ("quadmod", "weil_matrices", "quadmod.weil_matrices", None),
    ("dimensions", "dim_antisymmetric", "dimensions.dim_antisymmetric", None),
    ("eisenstein", "eisenstein_qexp", "eisenstein.qexp",
     lambda a, r: len(r.coeffs)),
    ("eisenstein", "_assemble", "eisenstein.assemble", None),
    ("eisenstein", "modularity_residual", "eisenstein.modularity_residual", None),
    ("localdensity", "_padic_block_decomposition",
     "localdensity.block_decomposition", None),
    ("localdensity", "_dist_one", "localdensity.dist_one",
     lambda a, r: len(r)),
    ("localdensity", "_dist_two", "localdensity.dist_two",
     lambda a, r: len(r) ** 2),
    ("localdensity", "_convolve_mod", "localdensity.convolve_mod",
     lambda a, r: len(a[0]) * len(a[1])),
    ("localdensity", "DensityEngine.density", "localdensity.density",
     lambda a, r: r.stabilized_at),
    ("localdensity", "DensityEngine.count", "localdensity.count", None),
    ("localdensity", "VClassMeasure.convolve", "localdensity.class_convolve",
     lambda a, r: (r.nu + 1) * r.p ** r.nu),
    ("localdensity", "DensityCache.get", "localdensity.cache.get",
     lambda a, r: r is not None),
    ("localdensity", "DensityCache.put", "localdensity.cache.put",
     lambda a, r: _file_size(a[0]._path(a[1]))),
    ("cuspgen", "r_series", "cuspgen.r_series", None),
    ("cuspgen", "cusp_basis", "cuspgen.cusp_basis", None),
    ("cuspgen", "weight3_cyclic", "cuspgen.weight3", None),
    ("cuspgen", "jacobi_coefficients", "cuspgen.rsum", lambda a, r: len(r)),
    ("thetalift", "theta_lift", "thetalift.lift", None),
    ("classnum", "hurwitz", "classnum.hurwitz", None),
    ("classnum", "prop10_check", "classnum.identity", None),
    ("classnum", "remark12_check", "classnum.identity", None),
]

# (module, attribute, probe name, work(args, result))
PROBES = [
    ("eisenstein", "lvalue_at_negative", "eisenstein.lvalue", lambda a, r: 1),
    ("cuspgen", "_RankAccumulator.add", "cuspgen.rank", lambda a, r: bool(r)),
    ("thetalift", "_cone_vectors", "thetalift.cone_vectors",
     lambda a, r: len(r)),
]

# every per-layer metric, with its unit and the direction that is better
PER_LAYER = [
    ("localdensity.convolve_mod.calls", "count", "lower"),
    ("localdensity.convolve_mod.self_s", "s", "lower"),
    ("localdensity.convolve_mod.ops", "count", "lower"),
    ("localdensity.class_convolve.calls", "count", "lower"),
    ("localdensity.class_convolve.self_s", "s", "lower"),
    ("localdensity.class_convolve.ops", "count", "lower"),
    ("localdensity.dist_two.calls", "count", "lower"),
    ("localdensity.dist_two.self_s", "s", "lower"),
    ("localdensity.dist_two.cells", "count", "lower"),
    ("localdensity.dist_one.calls", "count", "lower"),
    ("localdensity.dist_one.self_s", "s", "lower"),
    ("localdensity.dist_one.cells", "count", "lower"),
    ("localdensity.density.calls", "count", "lower"),
    ("localdensity.density.self_s", "s", "lower"),
    ("localdensity.count.calls", "count", "lower"),
    ("localdensity.count.self_s", "s", "lower"),
    ("localdensity.count_per_density", "ratio", "lower"),
    ("localdensity.stabilized_at.mean", "nu", "lower"),
    ("localdensity.block_decomposition.calls", "count", "lower"),
    ("localdensity.block_decomposition.self_s", "s", "lower"),
    ("localdensity.cache.get_calls", "count", "lower"),
    ("localdensity.cache.hits", "count", "higher"),
    ("localdensity.cache.hit_ratio", "ratio", "higher"),
    ("localdensity.cache.get_s", "s", "lower"),
    ("localdensity.cache.put_calls", "count", "lower"),
    ("localdensity.cache.put_s", "s", "lower"),
    ("localdensity.cache.bytes", "B", "lower"),
    ("eisenstein.qexp.calls", "count", "lower"),
    ("eisenstein.qexp.self_s", "s", "lower"),
    ("eisenstein.coeffs_computed", "count", "lower"),
    ("eisenstein.assemble.calls", "count", "lower"),
    ("eisenstein.assemble.self_s", "s", "lower"),
    ("eisenstein.lvalue_s", "s", "lower"),
    ("eisenstein.prec_exponent", "1", "lower"),
    ("cuspgen.r_series.calls", "count", "lower"),
    ("cuspgen.r_series.self_s", "s", "lower"),
    ("cuspgen.rsum_s", "s", "lower"),
    ("cuspgen.eis_read_ratio", "ratio", "higher"),
    ("cuspgen.rank.attempted", "count", "lower"),
    ("cuspgen.rank.accepted", "count", "higher"),
    ("thetalift.lift.calls", "count", "lower"),
    ("thetalift.lift.self_s", "s", "lower"),
    ("thetalift.cone_vectors", "count", "lower"),
    ("classnum.hurwitz.calls", "count", "lower"),
    ("classnum.hurwitz.self_s", "s", "lower"),
    ("classnum.identity_s", "s", "lower"),
    ("quadmod.discriminant_module.calls", "count", "lower"),
    ("quadmod.discriminant_module.self_s", "s", "lower"),
    ("quadmod.module_dual_coset.calls", "count", "lower"),
    ("quadmod.module_dual_coset.self_s", "s", "lower"),
    ("quadmod.weil_matrices.self_s", "s", "lower"),
    ("dimensions.dim_antisymmetric.calls", "count", "lower"),
    ("dimensions.dim_antisymmetric.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _lookup(module, target):
    """(owner, attribute) of "name" or "Class.method" in a module."""
    owner, _, attr = target.rpartition(".")
    return (getattr(module, owner) if owner else module), attr


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self.probes = {}
        self._undo = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn, work=None):
        nid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            self.work.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if work is not None:
                self.work[idx] = work(args, result)
            return result
        return traced

    def probe(self, name, fn, work):
        stats = self.probes.setdefault(name, [0, 0, 0.0])

        def probed(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            stats[2] += perf_counter() - t0
            stats[0] += 1
            stats[1] += work(args, result)
            return result
        return probed

    def install(self):
        """Wrap every traced function on each name its callers look up."""
        import weilforms
        from weilforms import (classnum, cli, cuspgen, dimensions, eisenstein,
                               localdensity, quadmod, thetalift)
        mods = dict(classnum=classnum, cli=cli, cuspgen=cuspgen,
                    dimensions=dimensions, eisenstein=eisenstein,
                    localdensity=localdensity, quadmod=quadmod,
                    thetalift=thetalift)
        everywhere = list(mods.values()) + [weilforms]
        specs = [(m, t, lambda fn, n=n, w=w: self.span(n, fn, w))
                 for m, t, n, w in SPANS]
        specs += [(m, t, lambda fn, n=n, w=w: self.probe(n, fn, w))
                  for m, t, n, w in PROBES]
        for m, target, make in specs:
            owner, attr = _lookup(mods[m], target)
            original = owner.__dict__[attr]
            wrapper = make(original)
            if owner is mods[m]:
                owners = [mod for mod in everywhere
                          if mod.__dict__.get(attr) is original]
            else:
                owners = [owner]
            for each in owners:
                self._set(each, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        """Write the spans and probe totals out, once, at the end."""
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 work=np.frombuffer(self.work, dtype=np.float64),
                 meta=np.array(json.dumps({"names": self.names,
                                           "probes": self.probes})))


def layer_metrics(path):
    """Per-layer metrics (without trace.overhead_s and the prec exponent)."""
    with np.load(path) as data:
        name, parent = data["name"], data["parent"]
        start, end, work = data["start"], data["end"], data["work"]
        meta = json.loads(str(data["meta"]))
    names, probes = meta["names"], meta["probes"]
    dur = end - start
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered
    nid = {n: i for i, n in enumerate(names)}

    def sel(span):
        return name == nid[span] if span in nid else np.zeros(len(name), bool)

    def calls(span):
        return int(sel(span).sum())

    def self_s(span):
        return float(self_time[sel(span)].sum())

    def total_s(span):
        return float(dur[sel(span)].sum())

    def work_sum(span):
        return float(work[sel(span)].sum())

    def has_child(span, child):
        out = np.zeros(len(name), bool)
        kids = sel(child) & has_parent
        out[parent[kids]] = True
        return out & sel(span)

    def under(span, ancestor):
        if ancestor not in nid:
            return 0
        found = 0
        for idx in np.flatnonzero(sel(span)):
            p = parent[idx]
            while p >= 0 and name[p] != nid[ancestor]:
                p = parent[p]
            found += p >= 0
        return found

    def probe(key, field):
        return probes.get(key, [0, 0, 0.0])[field]

    ld = "localdensity."
    out = {}
    for span, extra in (("convolve_mod", "ops"), ("class_convolve", "ops"),
                        ("dist_two", "cells"), ("dist_one", "cells")):
        out[ld + span + ".calls"] = calls(ld + span)
        out[ld + span + ".self_s"] = self_s(ld + span)
        out[ld + span + "." + extra] = work_sum(ld + span)
    computed = has_child(ld + "density", ld + "count")
    out[ld + "density.calls"] = calls(ld + "density")
    out[ld + "density.self_s"] = self_s(ld + "density")
    out[ld + "count.calls"] = calls(ld + "count")
    out[ld + "count.self_s"] = self_s(ld + "count")
    out[ld + "count_per_density"] = _ratio(calls(ld + "count"), computed.sum())
    out[ld + "stabilized_at.mean"] = _ratio(work[computed].sum(), computed.sum())
    out[ld + "block_decomposition.calls"] = calls(ld + "block_decomposition")
    out[ld + "block_decomposition.self_s"] = self_s(ld + "block_decomposition")
    gets = calls(ld + "cache.get")
    out[ld + "cache.get_calls"] = gets
    out[ld + "cache.hits"] = work_sum(ld + "cache.get")
    out[ld + "cache.hit_ratio"] = _ratio(work_sum(ld + "cache.get"), gets)
    out[ld + "cache.get_s"] = total_s(ld + "cache.get")
    out[ld + "cache.put_calls"] = calls(ld + "cache.put")
    out[ld + "cache.put_s"] = total_s(ld + "cache.put")
    out[ld + "cache.bytes"] = work_sum(ld + "cache.put")
    out["eisenstein.qexp.calls"] = calls("eisenstein.qexp")
    out["eisenstein.qexp.self_s"] = self_s("eisenstein.qexp")
    out["eisenstein.coeffs_computed"] = work_sum("eisenstein.qexp")
    out["eisenstein.assemble.calls"] = calls("eisenstein.assemble")
    out["eisenstein.assemble.self_s"] = self_s("eisenstein.assemble")
    out["eisenstein.lvalue_s"] = probe("eisenstein.lvalue", 2)
    out["cuspgen.r_series.calls"] = calls("cuspgen.r_series")
    out["cuspgen.r_series.self_s"] = self_s("cuspgen.r_series")
    out["cuspgen.rsum_s"] = total_s("cuspgen.rsum")
    out["cuspgen.eis_read_ratio"] = _ratio(
        work_sum("cuspgen.rsum"), under("eisenstein.assemble", "cuspgen.r_series"))
    out["cuspgen.rank.attempted"] = probe("cuspgen.rank", 0)
    out["cuspgen.rank.accepted"] = probe("cuspgen.rank", 1)
    out["thetalift.lift.calls"] = calls("thetalift.lift")
    out["thetalift.lift.self_s"] = self_s("thetalift.lift")
    out["thetalift.cone_vectors"] = probe("thetalift.cone_vectors", 1)
    out["classnum.hurwitz.calls"] = calls("classnum.hurwitz")
    out["classnum.hurwitz.self_s"] = self_s("classnum.hurwitz")
    out["classnum.identity_s"] = total_s("classnum.identity")
    for span in ("quadmod.discriminant_module", "quadmod.module_dual_coset",
                 "dimensions.dim_antisymmetric"):
        out[span + ".calls"] = calls(span)
        out[span + ".self_s"] = self_s(span)
    out["quadmod.weil_matrices.self_s"] = self_s("quadmod.weil_matrices")
    out["cli.self_s"] = self_s("cli")
    self_by_span = {n: self_s(n) for n in names}
    return out, self_by_span


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def loglog_slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))
