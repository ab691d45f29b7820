"""Command-line entry point: verification, sampling, quadrature, and experiments.

Configuration may come from a JSON file (--config) with flags overriding its
fields; every run emits a manifest (echoed config, seed, package version) next
to its outputs.  Exit codes: 0 success, 2 validation error, 3 numerical
non-convergence, 4 output failure (stdout closed early, as by a pipe to
``head``).

Each subcommand handler ``_cmd_*(args, config)`` computes and returns
``(records, extra, failure)``: its JSON records (or, for the CSV-first
``sample`` and ``polymer dp``, a ``_Table`` for --output), the manifest's
extra fields, and a failure message or None.  A handler writes nothing but its
--export CSV.  ``main`` reads the config once, writes the records and the
manifest, and only then turns a failure into exit code 2, so a failing check
still leaves every record behind.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction

import numpy as np

from . import __version__
from .qtools import ConvergenceError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_OUTPUT = 4


class ValidationFailure(Exception):
    pass


# the CSV that a CSV-first command writes to --output; its manifest goes to --manifest
_Table = namedtuple("_Table", "header rows")


def _emit(records, path, header=None):
    """Write JSON lines (dicts) or CSV rows (tuples with a header)."""
    with contextlib.nullcontext(sys.stdout) if path in (None, "-") else open(path, "w", newline="") as out:
        if header is not None:
            w = csv.writer(out)
            w.writerow(header)
            w.writerows(records)
        else:
            for rec in records:
                out.write(json.dumps(rec) + "\n")


def _manifest(args, config, extra):
    # F2 and the determinants move at the 1e-14 level with the BLAS build and
    # its thread count, so both are recorded
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {
        "manifest": True,
        "version": __version__,
        "seed": args.seed,
        "workers": args.workers,
        "argv": sys.argv[1:],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if args.config:
        rec["config"] = config
    if extra:
        rec.update(extra)
    return rec


def _model_block(config):
    """The config's "model" object ({} without --config)."""
    block = config.get("model", {}) if isinstance(config, dict) else None
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


def _model_from_args(args, config):
    from .model import QHahnModel

    block = dict(_model_block(config))
    if args.q is not None:
        block["q"] = args.q
    _require(block, ("q", "mu", "kappa", "lam", "colors"))
    if not _is_number(block["q"]):
        raise ValidationFailure(f"model field 'q' must be a number, got {block['q']!r}")
    mu, kappa, lam, colors = _number_lists(block, ("mu", "kappa", "lam", "colors"))
    if not all(isinstance(c, int) and c >= 0 for c in colors):
        raise ValidationFailure(f"model field 'colors' must list nonnegative integers, got {list(colors)!r}")
    return QHahnModel(q=block["q"], mu=mu, kappa=kappa, lam=lam, colors=colors)


def _polymer_model(config):
    from .polymer import PolymerModel

    return PolymerModel(*_number_lists(_model_block(config), ("sigma", "rho", "omega")))


def _freq_model(config):
    from .asymptotics import FreqModel

    defaults = {"sigma": [0.0], "alpha": [1.0], "rho": [-1.0], "beta": [1.0], "omega": [-2.0], "gamma": [1.0]}
    return FreqModel(*_number_lists({**defaults, **_model_block(config)}, tuple(defaults)))


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


def _fraction(rng):
    """A random rational in (0, 1) for q, t and s."""
    return Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))


def _comp(rng, n):
    """n random path counts in {0, 1, 2}, one per color."""
    return tuple(int(v) for v in rng.integers(0, 3, size=n))


def _stochastic_trial(rng, args):
    from .weights import qhahn_outgoing, sixv_outgoing

    q, tt, ss = _fraction(rng), _fraction(rng), _fraction(rng)
    A, B = _comp(rng, args.colors), _comp(rng, args.colors)
    ok = sum(qhahn_outgoing(A, B, q, tt, ss).values()) == 1
    j = int(rng.integers(0, args.colors + 1))
    return ok and sum(sixv_outgoing(A, j, q, tt, ss).values()) == 1


def _local_alg_trial(rng, args):
    from .weights import local_relation_residual

    n = int(rng.integers(1, 4))
    A, B, R = _comp(rng, n), _comp(rng, n), _comp(rng, n)
    q, tt, ss = _fraction(rng), _fraction(rng), _fraction(rng)
    return local_relation_residual(A, B, R, q, tt, ss) == 0


# the pass/fail trials of verify, and the label of their failure count
_TRIALS = {"stochastic": (_stochastic_trial, "stochasticity failures"),
           "local-alg": (_local_alg_trial, "local relation failures")}


def _cmd_verify(args, config):
    from .qtools import spawn_rng

    rng = spawn_rng(args.seed)
    failure = None
    if args.what == "ybe":
        from .weights import canonical_ybe_kind, random_ybe_instance, ybe_residual

        kind = canonical_ybe_kind(args.kind)
        zero = [ybe_residual(kind, *random_ybe_instance(kind, rng, colors=args.colors, max_entry=args.max_entry)) == 0
                for _ in range(args.trials)]
        records = [{"trial": i, "kind": kind, "residual_zero": z} for i, z in enumerate(zero)]
        nonzero = zero.count(False)
        summary = {"kind": kind, "trials": args.trials, "nonzero_residuals": nonzero}
        if nonzero:
            failure = f"nonzero residuals: {nonzero}"
    elif args.what in _TRIALS:
        trial, label = _TRIALS[args.what]
        oks = [trial(rng, args) for _ in range(args.trials)]
        records = [{"trial": i, "ok": ok} for i, ok in enumerate(oks)]
        summary = {"trials": args.trials, "failures": oks.count(False)}
        if summary["failures"]:
            failure = f"{label}: {summary['failures']}"
    elif args.what == "local-rat":
        from .hecke import local_rational_residual

        records = []
        for trial in range(args.trials):
            r = int(rng.integers(1, 5))
            w = tuple(complex(x, y) for x, y in rng.normal(size=(r, 2)))
            records.append({"trial": trial, "r": r,
                            "residual": abs(local_rational_residual(r, 0.55, 0.35, 0.4, w, 0.62))})
        summary = {"trials": args.trials, "worst_residual": max([0.0, *(rec["residual"] for rec in records)])}
        if summary["worst_residual"] > 1e-12:
            failure = f"rational local relation residual {summary['worst_residual']:.2e} > 1e-12"
    else:
        from .hecke import hecke_suite

        summary = hecke_suite(min(args.colors + 1, 4), 0.44, rng, npoints=args.trials)
        records = [dict(summary)]
        if max(summary.values()) > 1e-10:
            failure = "Hecke relation error above 1e-10"
    return records, {"summary": summary}, failure


def _cmd_sample(args, config):
    from .model import sample_grids
    from .qtools import spawn_rng

    H = sample_grids(_model_from_args(args, config), args.samples, spawn_rng(args.seed)).heights()
    replica, c, ix, iy = np.indices(H.shape)
    rows = np.stack([replica, 2 * ix + 1, 2 * iy + 1, c + 1, H], axis=-1).reshape(-1, 5).tolist()
    return _Table(("replica", "facet_x2", "facet_y2", "color", "value"), rows), None, None


def _value_record(request, val, info):
    return {"request": request, "value_re": val.real, "value_im": val.imag,
            "nodes": info["nodes"], "converged": info["converged"]}


def _lattice_points(values, flag):
    """The polymer corners of --x or --y; the flag takes floats for qhahn, so a non-integer is refused here."""
    if not all(v.is_integer() for v in values):
        raise ValidationFailure(f"moments polymer and single-contour need integer --{flag} values, got {values}")
    return [int(v) for v in values]


# the flags that each moments target reads besides --x and --y; it refuses the others
_MOMENTS_FLAGS = {"qhahn": {"q", "colors_list", "tau"}, "polymer": {"r", "tau"}, "single-contour": {"k"}}


def _cmd_moments(args, config):
    from .qtools import Permutation

    for name in ("q", "r", "colors_list", "tau", "k"):
        if getattr(args, name) not in (None, []) and name not in _MOMENTS_FLAGS[args.target]:
            raise ValidationFailure(f"moments {args.target} does not read --{name.replace('_', '-')}")
    if args.target == "qhahn":
        from .model import HeightRequest
        from .moments import qmoment_integral

        model = _model_from_args(args, config)
        if not args.x:
            raise ValidationFailure("moments qhahn needs --x, --y and --colors-list values")
        tau = Permutation(tuple(args.tau)) if args.tau else None
        req = HeightRequest.make(args.x, args.y, args.colors_list, tau)
        val, info = qmoment_integral(model, req, with_info=True)
        request = {"x": args.x, "y": args.y, "colors": args.colors_list, "tau": args.tau}
    elif args.target == "polymer":
        from .moments import beta_moment_integral

        pmodel = _polymer_model(config)
        tau = Permutation(tuple(args.tau)) if args.tau else None
        xs, ys, rs = _lattice_points(args.x, "x"), _lattice_points(args.y, "y"), args.r
        if not xs or not len(xs) == len(ys) == len(rs):
            raise ValidationFailure("--x, --y and --r need the same positive number of values")
        for x, y, r in zip(xs, ys, rs):
            _check_polymer_point(pmodel, x, y, r)
        val, info = beta_moment_integral(pmodel, xs, ys, rs, tau=tau, with_info=True)
        request = {"x": xs, "y": ys, "r": rs, "tau": args.tau}
    else:
        from .moments import single_contour_moment

        pmodel = _polymer_model(config)
        if len(args.x) != 1 or len(args.y) != 1:
            raise ValidationFailure("single-contour needs exactly one --x and one --y value")
        (x,), (y,) = _lattice_points(args.x, "x"), _lattice_points(args.y, "y")
        _check_polymer_point(pmodel, x, y)
        k = 1 if args.k is None else args.k
        val, info = single_contour_moment(pmodel, x, y, k, with_info=True)
        request = {"x": x, "y": y, "k": k}
    return [_value_record(request, val, info)], None, None


def _cmd_polymer(args, config):
    from .polymer import (mc_statistics, partition_bruteforce, partition_dp,
                          rwre_hitting, sample_environment)
    from .qtools import spawn_rng

    if args.manifest is not None and args.action != "dp":
        raise ValidationFailure(f"--manifest is only for polymer dp; polymer {args.action} writes it to --output")
    pmodel = _polymer_model(config)
    _check_polymer_point(pmodel, args.x, args.y, args.r, omega_span=args.y)
    if args.action == "mc":
        mode = "logZ" if args.log else "moments"
        stats = mc_statistics(pmodel, args.r, args.x, args.y, args.samples,
                              seed=args.seed, mode=mode, max_power=args.max_power,
                              keep_samples=bool(args.export), workers=args.workers)
        if args.export:
            rows = [(i, args.x, args.y, args.r, float(v)) for i, v in enumerate(stats.samples)]
            _emit(rows, args.export, header=("replica", "x", "y", "r",
                                             "log_value" if args.log else "value"))
        if mode == "moments":
            return [{"n": stats.n, "moments": {str(k): v for k, v in stats.moments.items()}}], None, None
        return [{"n": stats.n, "log_mean": stats.log_mean, "log_sd": stats.log_sd}], None, None
    env = sample_environment(pmodel, args.x, args.y, spawn_rng(args.seed))
    if args.action == "dp":
        table = partition_dp(env, args.r, args.x, args.y).table
        rows = [(0, x, y, args.r, float(table[x, y]))
                for x in range(args.x + 1) for y in range(args.y + 1) if not np.isnan(table[x, y])]
        return _Table(("replica", "x", "y", "r", "value"), rows), None, None
    z_dp = partition_dp(env, args.r, args.x, args.y).value(args.x, args.y)
    z_bf = partition_bruteforce(env, args.r, args.x, args.y)
    z_rw = rwre_hitting(env, args.r, args.x, args.y)
    return [{"dp": z_dp, "bruteforce": z_bf, "rwre": z_rw,
             "max_abs_diff": max(abs(z_dp - z_bf), abs(z_dp - z_rw))}], None, None


def _mb_fields(info, converged_key):
    """The Mellin-Barnes determinant's discretisation, as both fredholm records give it."""
    return {"nodes_C": info["nodes"], "nodes_L": info["nodes_L"], "T": info["T"],
            converged_key: info["converged"], "panels": info["panels"], "tail": info["tail"]}


def _cmd_fredholm(args, config):
    from .fredholm import laplace_series_det, mb_determinant, tracy_widom_F2

    if args.action == "tw-cdf":
        val, info = tracy_widom_F2(args.r, with_info=True)
        return [{"r": args.r, "F2": val, "nodes": info["nodes"], "converged": info["converged"]}], None, None
    pmodel = _polymer_model(config)
    x, y = args.x, args.y
    _check_polymer_point(pmodel, x, y)
    if args.action == "laplace":
        det, mb = mb_determinant(pmodel, x, y, args.u, with_info=True)
        record = {"u_re": args.u, "u_im": 0.0, "det_re": det.real, "det_im": det.imag,
                  **_mb_fields(mb, "converged")}
    else:
        d1, series = laplace_series_det(pmodel, x, y, args.u, with_info=True)
        d2, mb = mb_determinant(pmodel, x, y, args.u, with_info=True)
        record = {"u_re": args.u, "series_re": d1.real, "mb_re": d2.real, "abs_diff": abs(d1 - d2),
                  "series_nodes": series["nodes"], "series_converged": series["converged"],
                  "series_terms": series["terms"], **_mb_fields(mb, "mb_converged")}
    return [record], None, None


def _cmd_tw(args, config):
    from .asymptotics import tw_experiment

    batches = tw_experiment(_freq_model(config), args.theta, args.t, args.samples, seed=args.seed,
                            workers=args.workers)
    if args.export:
        _emit([(b.t, i, float(v)) for b in batches for i, v in enumerate(b.samples)], args.export,
              header=("t", "replica", "rescaled_value"))
    return [{"t": b.t, "ks": b.ks, "n": b.n, "ks_null_mean": b.ks_null_mean, "ks_null_95": b.ks_null_95,
             "mean": b.mean, "sd": b.sd, "regime": b.regime} for b in batches], None, None


def _cmd_descent(args, config):
    from .asymptotics import HFunction, check_steep_descent, h_checks, theta_constants

    fm = _freq_model(config)
    hf = HFunction(fm, theta_constants(fm, args.theta))
    records = [{"h_checks": {k: (v if not isinstance(v, dict) else {str(kk): vv for kk, vv in v.items()})
                             for k, v in h_checks(hf).items()}}]
    for which in args.which:
        ok, (grid, prof) = check_steep_descent(hf, which, grid=args.grid)
        records.append({"contour": which, "monotone_or_positive": bool(ok),
                        "profile_head": list(map(float, prof[:5]))})
    failed = [rec["contour"] for rec in records[1:] if not rec["monotone_or_positive"]]
    return records, None, f"descent profile check failed for {failed[0]}" if failed else None


# ---------------------------------------------------------------------------


def _count(least, source=""):
    """The argparse type of an integer flag that must be at least ``least``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            need = "a positive integer" if least == 1 else f"an integer >= {least}"
            raise argparse.ArgumentTypeError(f"need {need}{source}, got {text!r}")
        return value

    return parse


def build_parser():
    from .polymer import usable_cpus

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    # a string default goes through ``type`` too, so a malformed
    # QHAHN_POLYMER_WORKERS is a usage error like a malformed flag
    common.add_argument("--workers", type=_count(1, " (from --workers or QHAHN_POLYMER_WORKERS)"),
                        default=os.environ.get("QHAHN_POLYMER_WORKERS") or usable_cpus(),
                        help="threads for the replica blocks of tw and polymer mc "
                             "(default: QHAHN_POLYMER_WORKERS, else the usable CPUs); "
                             "results do not depend on it")
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--output", "-o", default="-",
                        help="output path (JSON lines); '-' = stdout")

    # --help shows the docstring's first two paragraphs; the handler contract is for the code's readers
    p = argparse.ArgumentParser(prog="qhahn-polymer", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common], help="exact and numeric identity verification")
    v.add_argument("what", choices=["ybe", "stochastic", "local-alg", "local-rat", "hecke"])
    v.add_argument("--kind", default="qhahn",
                   help="Yang-Baxter kind: qhahn|sixvertex|qhahn-deformed|sixvertex-deformed "
                        "(aliases WYB|hsYB|defWYB|defhsYB)")
    v.add_argument("--colors", type=_count(1), default=2)
    v.add_argument("--max-entry", type=_count(0), default=2)
    v.add_argument("--trials", type=_count(1), default=100)
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("sample", parents=[common], help="sample q-Hahn configurations; emit height CSV")
    s.add_argument("target", choices=["qhahn"])
    s.add_argument("--q", type=float)
    s.add_argument("--samples", type=_count(1), default=1)
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
    m.add_argument("--k", type=int, help="moment order of single-contour (default: 1)")
    m.set_defaults(func=_cmd_moments)

    po = sub.add_parser("polymer", parents=[common], help="polymer DP, brute-force cross-check, Monte Carlo")
    po.add_argument("action", choices=["dp", "brute", "mc"])
    po.add_argument("--x", type=int, required=True)
    po.add_argument("--y", type=int, required=True)
    po.add_argument("--r", type=int, default=0)
    # a standard error needs two replicas
    po.add_argument("--samples", type=_count(2), default=10000)
    po.add_argument("--max-power", type=_count(1), default=3)
    po.add_argument("--log", action="store_true")
    po.add_argument("--export", help="CSV path for raw samples")
    po.add_argument("--manifest", help="manifest path for dp, whose CSV goes to --output (default: stdout)")
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
    t.add_argument("--t", type=_count(1), nargs="+", default=[64, 256])
    # tw_experiment's least replica count per t
    t.add_argument("--samples", type=_count(100), default=2000)
    t.add_argument("--export", help="CSV path for rescaled samples")
    t.set_defaults(func=_cmd_tw)

    d = sub.add_parser("descent", parents=[common], help="steep-descent profile checks")
    d.add_argument("--theta", type=float, default=0.3)
    d.add_argument("--which", nargs="+", default=["line"],
                   choices=["line", "circle", "arcs"])
    d.add_argument("--grid", type=_count(1), default=200)
    d.set_defaults(func=_cmd_descent)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = {}
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
        records, extra, failure = args.func(args, config)
        manifest = _manifest(args, config, extra)
        if isinstance(records, _Table):
            _emit(records.rows, args.output, header=records.header)
            _emit([manifest], args.manifest)
        else:
            _emit([*records, manifest], args.output)
        if failure:
            raise ValidationFailure(failure)
    except BrokenPipeError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except (ValidationFailure, ValueError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
