"""Command-line entry point: verification, sampling, quadrature, and experiments.

Configuration may come from a JSON file (--config) with flags overriding its
fields; every run emits a manifest (echoed config, seed, package version) next
to its outputs.  Exit codes: 0 success, 2 validation error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


class ValidationFailure(Exception):
    pass


def _load_config(path):
    with open(path) as fh:
        return json.load(fh)


def _emit(records, path, header=None):
    """Write JSON lines (dicts) or CSV rows (tuples with a header)."""
    if path in (None, "-"):
        out = sys.stdout
        close = False
    else:
        out = open(path, "w", newline="")
        close = True
    try:
        if header is not None:
            w = csv.writer(out)
            w.writerow(header)
            w.writerows(records)
        else:
            for rec in records:
                out.write(json.dumps(rec) + "\n")
    finally:
        if close:
            out.close()


def _manifest(args, extra=None):
    # F2 and the determinants move at the 1e-14 level with the BLAS build and
    # its thread count, so both are recorded
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {
        "manifest": True,
        "version": __version__,
        "seed": args.seed,
        "workers": getattr(args, "workers", 1),
        "argv": sys.argv[1:],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if getattr(args, "config", None):
        rec["config"] = _load_config(args.config)
    if extra:
        rec.update(extra)
    return rec


def _model_block(args):
    """The config's "model" object ({} without --config)."""
    cfg = _load_config(args.config) if args.config else {}
    block = cfg.get("model", {}) if isinstance(cfg, dict) else None
    if not isinstance(block, dict):
        raise ValidationFailure("config field 'model' must be a JSON object")
    return block


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _require(block, names):
    missing = [k for k in names if block.get(k) is None]
    if missing:
        raise ValidationFailure(f"missing model field(s): {', '.join(missing)}")


def _number_lists(block, names):
    """The named fields of a model block, each a non-empty list of numbers."""
    _require(block, names)
    for k in names:
        v = block[k]
        if not isinstance(v, list) or not v or not all(_is_number(x) for x in v):
            raise ValidationFailure(f"model field {k!r} must be a non-empty list of numbers, got {v!r}")
    return [tuple(block[k]) for k in names]


def _model_from_args(args):
    from .model import QHahnModel

    block = dict(_model_block(args))
    if args.q is not None:
        block["q"] = args.q
    _require(block, ("q", "mu", "kappa", "lam", "colors"))
    if not _is_number(block["q"]):
        raise ValidationFailure(f"model field 'q' must be a number, got {block['q']!r}")
    mu, kappa, lam, colors = _number_lists(block, ("mu", "kappa", "lam", "colors"))
    if not all(isinstance(c, int) and c >= 0 for c in colors):
        raise ValidationFailure(f"model field 'colors' must list nonnegative integers, got {list(colors)!r}")
    return QHahnModel(q=block["q"], mu=mu, kappa=kappa, lam=lam, colors=colors)


def _polymer_from_args(args):
    from .polymer import PolymerModel

    return PolymerModel(*_number_lists(_model_block(args), ("sigma", "rho", "omega")))


def _freq_model_from_args(args):
    from .asymptotics import FreqModel

    defaults = {"sigma": [0.0], "alpha": [1.0], "rho": [-1.0], "beta": [1.0], "omega": [-2.0], "gamma": [1.0]}
    return FreqModel(*_number_lists({**defaults, **_model_block(args)}, tuple(defaults)))


def _check_polymer_point(pmodel, x, y, r=0, omega_span=None):
    """Reject (x, y, r) outside the domain or the schedules: sigma_0..x, rho_1..y, omega_1..omega_span."""
    if r < 0 or not 0 <= x <= y - r:
        raise ValidationFailure(f"need r >= 0 and 0 <= x <= y - r, got x={x}, y={y}, r={r}")
    for name, have, need in (("sigma", pmodel.sigma_list, x + 1), ("rho", pmodel.rho_list, y),
                             ("omega", pmodel.omega_list, y - x if omega_span is None else omega_span)):
        if len(have) < need:
            raise ValidationFailure(f"model field {name!r} has {len(have)} entries; (x={x}, y={y}) needs {need}")


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _cmd_verify(args):
    from .qtools import spawn_rng

    rng = spawn_rng(args.seed)
    records = []

    def fraction():  # a random rational in (0, 1) for q, t and s
        return Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))

    if args.what == "ybe":
        from .weights import canonical_ybe_kind, random_ybe_instance, ybe_residual

        kind = canonical_ybe_kind(args.kind)
        nonzero = 0
        for trial in range(args.trials):
            boundary, params = random_ybe_instance(kind, rng, colors=args.colors, max_entry=args.max_entry)
            resid = ybe_residual(kind, boundary, params)
            if resid != 0:
                nonzero += 1
            records.append({"trial": trial, "kind": kind, "residual_zero": resid == 0})
        summary = {"kind": kind, "trials": args.trials, "nonzero_residuals": nonzero}
        if nonzero:
            raise ValidationFailure(f"nonzero residuals: {nonzero}")
    elif args.what == "stochastic":
        from .weights import qhahn_outgoing, sixv_outgoing

        bad = 0
        for trial in range(args.trials):
            q, tt, ss = fraction(), fraction(), fraction()
            A = tuple(int(v) for v in rng.integers(0, 3, size=args.colors))
            B = tuple(int(v) for v in rng.integers(0, 3, size=args.colors))
            ok = sum(qhahn_outgoing(A, B, q, tt, ss).values()) == 1
            j = int(rng.integers(0, args.colors + 1))
            ok = ok and sum(sixv_outgoing(A, j, q, tt, ss).values()) == 1
            bad += 0 if ok else 1
            records.append({"trial": trial, "ok": ok})
        summary = {"trials": args.trials, "failures": bad}
        if bad:
            raise ValidationFailure(f"stochasticity failures: {bad}")
    elif args.what == "local-alg":
        from .weights import local_relation_residual

        bad = 0
        for trial in range(args.trials):
            n = int(rng.integers(1, 4))
            A = tuple(int(v) for v in rng.integers(0, 3, size=n))
            B = tuple(int(v) for v in rng.integers(0, 3, size=n))
            R = tuple(int(v) for v in rng.integers(0, 3, size=n))
            q, tt, ss = fraction(), fraction(), fraction()
            ok = local_relation_residual(A, B, R, q, tt, ss) == 0
            bad += 0 if ok else 1
            records.append({"trial": trial, "ok": ok})
        summary = {"trials": args.trials, "failures": bad}
        if bad:
            raise ValidationFailure(f"local relation failures: {bad}")
    elif args.what == "local-rat":
        from .hecke import local_rational_residual

        worst = 0.0
        for trial in range(args.trials):
            r = int(rng.integers(1, 5))
            w = tuple(complex(x, y) for x, y in rng.normal(size=(r, 2)))
            resid = abs(local_rational_residual(r, 0.55, 0.35, 0.4, w, 0.62))
            worst = max(worst, resid)
            records.append({"trial": trial, "r": r, "residual": resid})
        summary = {"trials": args.trials, "worst_residual": worst}
        if worst > 1e-12:
            raise ValidationFailure(f"rational local relation residual {worst:.2e} > 1e-12")
    elif args.what == "hecke":
        from .hecke import hecke_suite

        errs = hecke_suite(min(args.colors + 1, 4), 0.44, rng, npoints=args.trials)
        records.append({k: v for k, v in errs.items()})
        summary = dict(errs)
        if max(errs.values()) > 1e-10:
            raise ValidationFailure("Hecke relation error above 1e-10")
    else:
        raise ValidationFailure(f"unknown verify target {args.what!r}")
    records.append(_manifest(args, {"summary": summary}))
    _emit(records, args.output)


def _cmd_sample(args):
    from .model import sample_grids
    from .qtools import spawn_rng

    model = _model_from_args(args)
    H = sample_grids(model, args.samples, spawn_rng(args.seed)).heights()
    _, c, ix, iy = np.indices(H.shape)
    rows = np.stack([2 * ix + 1, 2 * iy + 1, c + 1, H], axis=-1).reshape(-1, 4).tolist()
    _emit(rows, args.output, header=("facet_x2", "facet_y2", "color", "value"))
    _emit([_manifest(args)], args.manifest)


def _cmd_moments(args):
    from .qtools import Permutation

    records = []
    if args.target == "qhahn":
        from .model import HeightRequest
        from .moments import qmoment_integral

        model = _model_from_args(args)
        if not args.x:
            raise ValidationFailure("moments qhahn needs --x, --y and --colors-list values")
        tau = Permutation(tuple(args.tau)) if args.tau else None
        req = HeightRequest.make(args.x, args.y, args.colors_list, tau)
        val, info = qmoment_integral(model, req, with_info=True)
        records.append({
            "request": {"x": args.x, "y": args.y, "colors": args.colors_list,
                        "tau": list(tau.values) if tau else None},
            "value_re": val.real, "value_im": val.imag,
            "nodes": info["nodes"], "converged": info["converged"],
        })
    elif args.target == "polymer":
        from .moments import beta_moment_integral

        pmodel = _polymer_from_args(args)
        tau = Permutation(tuple(args.tau)) if args.tau else None
        xs = [int(v) for v in args.x]
        ys = [int(v) for v in args.y]
        rs = [int(v) for v in args.r]
        if not xs or not len(xs) == len(ys) == len(rs):
            raise ValidationFailure("--x, --y and --r need the same positive number of values")
        for x, y, r in zip(xs, ys, rs):
            _check_polymer_point(pmodel, x, y, r)
        val, info = beta_moment_integral(pmodel, xs, ys, rs, tau=tau, with_info=True)
        records.append({
            "request": {"x": xs, "y": ys, "r": rs, "tau": list(tau.values) if tau else None},
            "value_re": val.real, "value_im": val.imag,
            "nodes": info["nodes"], "converged": info["converged"],
        })
    elif args.target == "single-contour":
        from .moments import single_contour_moment

        pmodel = _polymer_from_args(args)
        if len(args.x) != 1 or len(args.y) != 1:
            raise ValidationFailure("single-contour needs exactly one --x and one --y value")
        _check_polymer_point(pmodel, int(args.x[0]), int(args.y[0]))
        val, info = single_contour_moment(pmodel, int(args.x[0]), int(args.y[0]), args.k, with_info=True)
        records.append({
            "request": {"x": int(args.x[0]), "y": int(args.y[0]), "k": args.k},
            "value_re": val.real, "value_im": val.imag,
            "nodes": info["nodes"], "converged": info["converged"],
        })
    else:
        raise ValidationFailure(f"unknown moments target {args.target!r}")
    records.append(_manifest(args))
    _emit(records, args.output)


def _cmd_polymer(args):
    from .polymer import (mc_statistics, partition_bruteforce, partition_dp,
                          rwre_hitting, sample_environment)
    from .qtools import spawn_rng

    pmodel = _polymer_from_args(args)
    _check_polymer_point(pmodel, args.x, args.y, args.r, omega_span=args.y)
    records = []
    if args.action == "dp":
        env = sample_environment(pmodel, args.x, args.y, spawn_rng(args.seed))
        field = partition_dp(env, args.r, args.x, args.y)
        rows = []
        for x in range(args.x + 1):
            for y in range(args.y + 1):
                v = field.table[x, y]
                if not np.isnan(v):
                    rows.append((0, x, y, args.r, float(v)))
        _emit(rows, args.output, header=("replica", "x", "y", "r", "value"))
        _emit([_manifest(args)], args.manifest)
        return
    if args.action == "brute":
        env = sample_environment(pmodel, args.x, args.y, spawn_rng(args.seed))
        z_dp = partition_dp(env, args.r, args.x, args.y).value(args.x, args.y)
        z_bf = partition_bruteforce(env, args.r, args.x, args.y)
        z_rw = rwre_hitting(env, args.r, args.x, args.y)
        records.append({"dp": z_dp, "bruteforce": z_bf, "rwre": z_rw,
                        "max_abs_diff": max(abs(z_dp - z_bf), abs(z_dp - z_rw))})
    elif args.action == "mc":
        mode = "logZ" if args.log else "moments"
        stats = mc_statistics(pmodel, args.r, args.x, args.y, args.samples,
                              seed=args.seed, mode=mode, max_power=args.max_power,
                              keep_samples=bool(args.export))
        if mode == "moments":
            records.append({"n": stats.n, "moments": {str(k): v for k, v in stats.moments.items()}})
        else:
            records.append({"n": stats.n, "log_mean": stats.log_mean, "log_sd": stats.log_sd})
        if args.export:
            rows = [(i, args.x, args.y, args.r, float(v)) for i, v in enumerate(stats.samples)]
            _emit(rows, args.export, header=("replica", "x", "y", "r",
                                             "log_value" if args.log else "value"))
    else:
        raise ValidationFailure(f"unknown polymer action {args.action!r}")
    records.append(_manifest(args))
    _emit(records, args.output)


def _cmd_fredholm(args):
    records = []
    if args.action == "tw-cdf":
        from .fredholm import tracy_widom_F2

        val, info = tracy_widom_F2(args.r, with_info=True)
        records.append({"r": args.r, "F2": val, "nodes": info["nodes"], "converged": info["converged"]})
    else:
        pmodel = _polymer_from_args(args)
        x, y = args.x, args.y
        _check_polymer_point(pmodel, x, y)
        if args.action == "laplace":
            from .fredholm import mb_determinant

            det_mb, info = mb_determinant(pmodel, x, y, args.u, with_info=True)
            records.append({
                "u_re": args.u, "u_im": 0.0,
                "det_re": det_mb.real, "det_im": det_mb.imag,
                "nodes_C": info["nodes"], "nodes_L": info["nodes_L"], "T": info["T"],
                "converged": info["converged"], "panels": info["panels"], "tail": info["tail"],
            })
        elif args.action == "mb-check":
            from .fredholm import laplace_series_det, mb_determinant

            d1, series = laplace_series_det(pmodel, x, y, args.u, with_info=True)
            d2, mb = mb_determinant(pmodel, x, y, args.u, with_info=True)
            records.append({
                "u_re": args.u, "series_re": d1.real, "mb_re": d2.real,
                "abs_diff": abs(d1 - d2),
                "series_nodes": series["nodes"], "series_converged": series["converged"],
                "series_terms": series["terms"],
                "nodes_C": mb["nodes"], "nodes_L": mb["nodes_L"], "T": mb["T"],
                "mb_converged": mb["converged"], "panels": mb["panels"], "tail": mb["tail"],
            })
        else:
            raise ValidationFailure(f"unknown fredholm action {args.action!r}")
    records.append(_manifest(args))
    _emit(records, args.output)


def _cmd_tw(args):
    from .asymptotics import tw_experiment

    fm = _freq_model_from_args(args)
    batches = tw_experiment(fm, args.theta, args.t, args.samples, seed=args.seed,
                            workers=args.workers)
    rows = []
    for b in batches:
        for i, v in enumerate(b.samples):
            rows.append((b.t, i, float(v)))
    if args.export:
        _emit(rows, args.export, header=("t", "replica", "rescaled_value"))
    records = [{"t": b.t, "ks": b.ks, "n": b.n, "ks_null_mean": b.ks_null_mean,
                "ks_null_95": b.ks_null_95, "mean": b.mean, "sd": b.sd, "regime": b.regime}
               for b in batches]
    records.append(_manifest(args))
    _emit(records, args.output)


def _cmd_descent(args):
    from .asymptotics import HFunction, check_steep_descent, h_checks, theta_constants

    fm = _freq_model_from_args(args)
    hf = HFunction(fm, theta_constants(fm, args.theta))
    records = [{"h_checks": {k: (v if not isinstance(v, dict) else {str(kk): vv for kk, vv in v.items()})
                             for k, v in h_checks(hf).items()}}]
    for which in args.which:
        ok, (grid, prof) = check_steep_descent(hf, which, grid=args.grid)
        records.append({"contour": which, "monotone_or_positive": bool(ok),
                        "profile_head": list(map(float, prof[:5]))})
        if not ok:
            raise ValidationFailure(f"descent profile check failed for {which}")
    records.append(_manifest(args))
    _emit(records, args.output)


# ---------------------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=int,
                        default=int(os.environ.get("QHAHN_POLYMER_WORKERS", os.cpu_count() or 1)))
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--output", "-o", default="-",
                        help="output path (JSON lines); '-' = stdout")

    p = argparse.ArgumentParser(prog="qhahn-polymer", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common], help="exact and numeric identity verification")
    v.add_argument("what", choices=["ybe", "stochastic", "local-alg", "local-rat", "hecke"])
    v.add_argument("--kind", default="qhahn",
                   help="Yang-Baxter kind: qhahn|sixvertex|qhahn-deformed|sixvertex-deformed "
                        "(aliases WYB|hsYB|defWYB|defhsYB)")
    v.add_argument("--colors", type=int, default=2)
    v.add_argument("--max-entry", type=int, default=2)
    v.add_argument("--trials", type=int, default=100)
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("sample", parents=[common], help="sample q-Hahn configurations; emit height CSV")
    s.add_argument("target", choices=["qhahn"])
    s.add_argument("--q", type=float)
    s.add_argument("--samples", type=int, default=1)
    s.add_argument("--manifest", default="-")
    s.set_defaults(func=_cmd_sample)

    m = sub.add_parser("moments", parents=[common], help="contour-integral moments")
    m.add_argument("target", choices=["qhahn", "polymer", "single-contour"])
    m.add_argument("--q", type=float)
    m.add_argument("--x", type=float, nargs="+", default=[])
    m.add_argument("--y", type=float, nargs="+", default=[])
    m.add_argument("--r", type=int, nargs="+", default=[])
    m.add_argument("--colors-list", type=int, nargs="+", default=[])
    m.add_argument("--tau", type=int, nargs="+", default=None)
    m.add_argument("--k", type=int, default=1)
    m.set_defaults(func=_cmd_moments)

    po = sub.add_parser("polymer", parents=[common], help="polymer DP, brute-force cross-check, Monte Carlo")
    po.add_argument("action", choices=["dp", "brute", "mc"])
    po.add_argument("--x", type=int, required=True)
    po.add_argument("--y", type=int, required=True)
    po.add_argument("--r", type=int, default=0)
    po.add_argument("--samples", type=int, default=10000)
    po.add_argument("--max-power", type=int, default=3)
    po.add_argument("--log", action="store_true")
    po.add_argument("--export", help="CSV path for raw samples")
    po.add_argument("--manifest", default="-")
    po.set_defaults(func=_cmd_polymer)

    f = sub.add_parser("fredholm", parents=[common], help="Laplace-transform determinants and F2")
    f.add_argument("action", choices=["laplace", "mb-check", "tw-cdf"])
    f.add_argument("--u", type=float, default=-2.0)
    f.add_argument("--x", type=int, default=2)
    f.add_argument("--y", type=int, default=5)
    f.add_argument("--r", type=float, default=0.0)
    f.set_defaults(func=_cmd_fredholm)

    t = sub.add_parser("tw", parents=[common], help="Tracy-Widom rescaling experiment")
    t.add_argument("--theta", type=float, default=0.3)
    t.add_argument("--t", type=int, nargs="+", default=[64, 256])
    t.add_argument("--samples", type=int, default=2000)
    t.add_argument("--export", help="CSV path for rescaled samples")
    t.set_defaults(func=_cmd_tw)

    d = sub.add_parser("descent", parents=[common], help="steep-descent profile checks")
    d.add_argument("--theta", type=float, default=0.3)
    d.add_argument("--which", nargs="+", default=["line"],
                   choices=["line", "circle", "arcs"])
    d.add_argument("--grid", type=int, default=200)
    d.set_defaults(func=_cmd_descent)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValidationFailure, ValueError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # numerical failures
        from .moments import ConvergenceError

        if isinstance(exc, ConvergenceError):
            print(f"non-convergence: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        raise
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
