"""Command-line interface: parsing, dispatch, serialization."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .classnum import hurwitz, prop10_check, remark12_check
from .cuspgen import CuspIndex, cusp_basis, r_series, weight3_cyclic
from .dimensions import dim_antisymmetric
from .eisenstein import QExpansion, eisenstein_qexp, _frs
from .errors import InputError, WeilformsError
from .localdensity import DensityCache
from .quadmod import EvenLattice, discriminant_module, module_dual_coset
from .thetalift import (LorentzianGram, OrthogonalExpansion, doi_naganuma,
                        hilbert_index, theta_lift)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad rational %r: %s" % (text, exc)) from None


def _parse_prec(text: str) -> Fraction:
    prec = _parse_fraction(text)
    if prec < 0:
        raise InputError("--prec must not be negative, got %s" % text)
    return prec


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    except ValueError as exc:
        raise InputError("parse error in %s: %s" % (path, exc)) from None


def load_gram(path: str):
    data = _load_json(path)
    if not isinstance(data, dict) or "gram" not in data:
        raise InputError("%s: expected an object with a 'gram' entry" % path)
    rows = data["gram"]
    try:
        return EvenLattice(tuple(tuple(row) for row in rows))
    except (TypeError, ValueError) as exc:
        raise InputError("%s: bad gram matrix: %s" % (path, exc)) from None


def parse_beta(module, text: str):
    """Generator coordinates ("3" or "1,2") or a dual vector ("3/4" forms)."""
    parts = [p.strip() for p in text.split(",")]
    if any("/" in p for p in parts):
        if len(parts) != module.lattice.rank:
            raise InputError("beta needs %d dual-vector entries"
                             % module.lattice.rank)
        return module_dual_coset(module, tuple(_parse_fraction(p) for p in parts))
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        raise InputError("bad beta %r" % text) from None
    if len(coords) != len(module.generator_orders):
        raise InputError("beta needs %d generator coordinates"
                         % len(module.generator_orders))
    return module.element(coords)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as InputError, so main() reports them as JSON."""

    def error(self, message):
        raise InputError("%s: %s" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="weilforms",
        description="Antisymmetric vector-valued cusp forms, theta lifts, "
                    "and class-number identities, in exact arithmetic.")
    parser.add_argument("--format", choices=("json", "table"), default="json",
                        dest="output_format")
    parser.add_argument("--cache-dir", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fqm-info", help="discriminant group of a Gram matrix")
    p.add_argument("--gram", required=True)

    p = sub.add_parser("dim", help="dimensions of antisymmetric form spaces")
    p.add_argument("--gram", required=True)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("eisenstein", help="Eisenstein series coefficients")
    p.add_argument("--gram", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--prec", required=True)

    p = sub.add_parser("r-series", help="cusp form attached to an index (m, beta)")
    p.add_argument("--gram", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--prec", required=True)

    p = sub.add_parser("cusp-basis", help="spanning set of the cusp space")
    p.add_argument("--gram", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--prec", default=None)

    p = sub.add_parser("weight3", help="weight 3 series for the cyclic family")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--prec", required=True)

    p = sub.add_parser("theta-lift", help="orthogonal lift of a cusp form")
    p.add_argument("--gram", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--weight", required=True, type=int)
    p.add_argument("--bound", required=True)
    p.add_argument("--seed", default=None)
    p.add_argument("--format", dest="lift_format",
                   choices=("lattice", "scalar", "hilbert"), default="lattice")

    p = sub.add_parser("doi-naganuma", help="Hilbert modular lift")
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--input", required=True)
    p.add_argument("--bound", required=True)

    p = sub.add_parser("class-identity", help="class number identity checks")
    p.add_argument("--prop10", choices=("i", "ii"), default=None)
    p.add_argument("--remark12", action="store_true")
    p.add_argument("--n-max", required=True, type=int)

    p = sub.add_parser("hurwitz", help="Hurwitz class number H(d)")
    p.add_argument("--d", required=True, type=int)
    return parser


def _qexp_table(exp: QExpansion):
    rows = [("gamma", "n", "c")]
    for item in exp.to_json_dict()["coeffs"]:
        rows.append((",".join(str(x) for x in item["gamma"]), item["n"], item["c"]))
    return rows


def _render_table(rows):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip()
                     for row in rows)


def _emit(payload, table_rows, fmt):
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _render_table(table_rows)


def dispatch(args: argparse.Namespace) -> str:
    cache = DensityCache(args.cache_dir)
    fmt = args.output_format
    cmd = args.command

    if cmd == "fqm-info":
        module = discriminant_module(load_gram(args.gram))
        payload = {
            "order": module.order,
            "generator_orders": list(module.generator_orders),
            "signature_mod8": module.signature_mod8,
            "q_values": [{"gamma": list(g), "q": _frs(module.qvalue(g))}
                         for g in module.elements()],
        }
        rows = [("gamma", "Q")] + [(",".join(map(str, e["gamma"])), e["q"])
                                   for e in payload["q_values"]]
        return _emit(payload, rows, fmt)

    if cmd == "dim":
        module = discriminant_module(load_gram(args.gram))
        rep = dim_antisymmetric(module, _parse_fraction(args.weight))
        payload = {
            "weight": _frs(rep.weight),
            "dim_m": rep.dim_m,
            "dim_s": rep.dim_s,
            "alpha4_tilde": rep.alpha4_tilde,
            "b1": _frs(rep.b1),
            "b2": _frs(rep.b2),
            "d_pairs": rep.d_pairs,
            "numeric_residual": rep.numeric_residual,
        }
        rows = [("field", "value")] + [(k, str(v)) for k, v in payload.items()]
        return _emit(payload, rows, fmt)

    if cmd == "eisenstein":
        lattice = load_gram(args.gram)
        exp = eisenstein_qexp(lattice, _parse_fraction(args.weight),
                              _parse_prec(args.prec), cache=cache)
        return _emit(exp.to_json_dict(), _qexp_table(exp), fmt)

    if cmd == "r-series":
        lattice = load_gram(args.gram)
        module = discriminant_module(lattice)
        beta = parse_beta(module, args.beta)
        idx = CuspIndex(_parse_fraction(args.m), beta)
        exp = r_series(lattice, _parse_fraction(args.weight), idx,
                       _parse_prec(args.prec), cache=cache)
        return _emit(exp.to_json_dict(), _qexp_table(exp), fmt)

    if cmd == "cusp-basis":
        lattice = load_gram(args.gram)
        prec = _parse_prec(args.prec) if args.prec else None
        basis = cusp_basis(lattice, _parse_fraction(args.weight), prec=prec,
                           cache=cache)
        payload = [{"m": _frs(ix.m), "beta": list(ix.beta),
                    "series": exp.to_json_dict()} for ix, exp in basis]
        rows = [("m", "beta", "coefficients")]
        for entry in payload:
            rows.append((entry["m"], ",".join(map(str, entry["beta"])),
                         str(len(entry["series"]["coeffs"]))))
        return _emit(payload, rows, fmt)

    if cmd == "weight3":
        exp = weight3_cyclic(args.n, _parse_prec(args.prec))
        return _emit(exp.to_json_dict(), _qexp_table(exp), fmt)

    if cmd == "theta-lift":
        form = QExpansion.from_json_dict(_load_json(args.input))
        gram_lat = load_gram(args.gram)
        seed = tuple(_parse_fraction(x) for x in args.seed.split(",")) \
            if args.seed else (1,) + (0,) * (gram_lat.rank - 1)
        gram = LorentzianGram(gram_lat.gram, seed)
        if args.lift_format == "hilbert" and gram.rank != 2:
            raise InputError("--format hilbert needs a rank-2 Gram matrix")
        lift = theta_lift(form, gram, args.weight, _parse_fraction(args.bound))
        return _emit_lift(lift, args.lift_format, fmt)

    if cmd == "doi-naganuma":
        form = QExpansion.from_json_dict(_load_json(args.input))
        lift = doi_naganuma(args.d, form, _parse_fraction(args.bound))
        return _emit_lift(lift, "hilbert", fmt)

    if cmd == "class-identity":
        if (args.prop10 is None) == (not args.remark12):
            raise InputError("choose exactly one of --prop10 i|ii or --remark12")
        rows = [("n", "lhs", "rhs", "equal")]
        payload = []
        for n in range(0 if args.prop10 else 1, args.n_max + 1):
            if args.prop10:
                lhs, rhs, eq = prop10_check(args.prop10, n)
                payload.append({"n": n, "lhs": _frs(lhs), "rhs": _frs(rhs),
                                "equal": eq})
                rows.append((n, _frs(lhs), _frs(rhs), eq))
            else:
                l1, l2, rhs, eq = remark12_check(n)
                payload.append({"n": n, "lhs1": _frs(l1), "lhs2": _frs(l2),
                                "rhs": _frs(rhs), "equal": eq})
                rows.append((n, _frs(l1), _frs(rhs), eq))
        return _emit(payload, rows, fmt)

    if cmd == "hurwitz":
        value = hurwitz(args.d)
        return _emit({"d": args.d, "h": _frs(value)},
                     [("d", "H"), (args.d, _frs(value))], fmt)

    raise InputError("unknown command %r" % cmd)


def _emit_lift(lift: OrthogonalExpansion, lift_format, fmt):
    payload = lift.to_json_dict()
    rows = [("r", "c")]
    if lift_format == "scalar":
        payload["scalar"] = [{"n": lift.scalar_index(r), "c": _frs(c)}
                             for r, c in sorted(lift.coeffs.items()) if c]
        rows = [("n", "c")] + [(e["n"], e["c"]) for e in payload["scalar"]]
    elif lift_format == "hilbert":
        payload["hilbert"] = [{"nu": hilbert_index(r), "c": _frs(c)}
                              for r, c in sorted(lift.coeffs.items()) if c]
        rows = [("nu", "c")] + [(e["nu"], e["c"]) for e in payload["hilbert"]]
    else:
        rows += [(",".join(_frs(x) for x in r), _frs(c))
                 for r, c in sorted(lift.coeffs.items()) if c]
    return _emit(payload, rows, fmt)


def main(argv=None) -> int:
    try:
        out = dispatch(build_parser().parse_args(argv))
    except WeilformsError as exc:
        err = {"error": type(exc).__name__, "message": str(exc),
               "exit_code": exc.exit_code}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return exc.exit_code
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
