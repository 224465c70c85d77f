"""Command-line front end.

Subcommands:

* ``check``         -- search a metric for negative sectional curvature
* ``infinitesimal`` -- search a variation derivative for commuting pairs
                       with negative third derivative
* ``path``          -- scan the inverse-linear path of a variation
                       derivative over a time grid (optional CSV export)
* ``family``        -- emit a generated family metric or derivative
* ``reproduce``     -- run a named verification suite

Exit codes: 0 when every verdict is nonnegative and every residual passes,
1 when a negative witness or failed residual appears, 2 on invalid input.

Reports are strict JSON (sorted keys, no NaN or infinity; non-finite input
exits 2); for a fixed configuration and seed the output is byte-identical
across runs, except for the ``wall_time_ms`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, families, suites
from .algebra import so3, so4
from .errors import LieCurvError
from .metric import LeftInvariantMetric
from .verify import Budget, infinitesimal_check, min_curvature, path_scan

SCHEMA_VERSION = 1
_SYMMETRY_INPUT_TOL = 1e-10


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse number list {text!r}") from exc


def parse_matrix(spec: str, allowed_dims=(3, 6)) -> np.ndarray:
    """Parse a symmetric matrix from diag:, row-major, or @file JSON form.

    Validates symmetry to 1e-10 (relative) and then symmetrizes exactly.
    """
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            arr = np.asarray(data, dtype=float)
        except TypeError as exc:
            raise ValueError(f"matrix file holds no number array: {exc}") from exc
        if arr.ndim == 1:
            side = int(round(np.sqrt(arr.size)))
            if side * side != arr.size:
                raise ValueError(f"flat matrix length {arr.size} is not square")
            arr = arr.reshape(side, side)
    elif spec.startswith("diag:"):
        arr = np.diag(_parse_floats(spec[len("diag:"):]))
    else:
        vals = _parse_floats(spec)
        side = int(round(np.sqrt(len(vals))))
        if side * side != len(vals):
            raise ValueError(
                f"expected diag: prefix or a square row-major list, got {len(vals)} entries"
            )
        arr = np.asarray(vals).reshape(side, side)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be a square 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    if arr.shape[0] not in allowed_dims:
        raise ValueError(f"matrix must have dimension in {allowed_dims}, got {arr.shape[0]}")
    if np.abs(arr - arr.T).max() > _SYMMETRY_INPUT_TOL * max(1.0, np.abs(arr).max()):
        raise ValueError("matrix is not symmetric within 1e-10")
    return 0.5 * (arr + arr.T)


def _algebra_for(dim: int):
    return so3() if dim == 3 else so4()


def _family_phi(args) -> tuple[np.ndarray, dict]:
    name = args.family
    if name == "product":
        if not (args.phi1 and args.phi2):
            raise ValueError("product family needs --phi1 and --phi2")
        p = families.ProductParams(
            phi1=parse_matrix(args.phi1, allowed_dims=(3,)),
            phi2=parse_matrix(args.phi2, allowed_dims=(3,)),
        )
        return families.product_phi(p), {"family": name, "phi1": args.phi1, "phi2": args.phi2}
    if name == "torus":
        tau_vals = _parse_floats(args.tau)
        if len(tau_vals) != 3:
            raise ValueError("--tau expects t11,t12,t22")
        tau = np.array([[tau_vals[0], tau_vals[1]], [tau_vals[1], tau_vals[2]]])
        p = families.TorusParams(c=args.c, d=args.d, tau_block=tau)
        return families.torus_phi(p), {"family": name, "c": args.c, "d": args.d, "tau": tau_vals}
    if name == "s3-action":
        lam = _parse_floats(args.lam)
        p = families.S3ActionParams(a=args.a, b=args.b, lam=np.asarray(lam))
        return families.s3_action_phi(p), {"family": name, "a": args.a, "b": args.b, "lambda": lam}
    raise ValueError(f"unknown family: {args.family}")


def _family_psi(args) -> tuple[np.ndarray, dict]:
    name = args.family
    if name == "torus":
        psi = families.torus_psi(args.c, args.d, args.a1, args.a2, args.a3)
        cfg = {"family": name, "c": args.c, "d": args.d,
               "a1": args.a1, "a2": args.a2, "a3": args.a3}
        return psi, cfg
    if name == "s3-action":
        lam = _parse_floats(args.lam)
        psi = families.s3_action_psi(args.alpha, args.beta, np.asarray(lam))
        cfg = {"family": name, "alpha": args.alpha, "beta": args.beta, "lambda": lam}
        return psi, cfg
    raise ValueError(f"unknown derivative family: {args.family}")


def _metric_source(args) -> tuple[np.ndarray, dict]:
    if args.phi and args.family:
        raise ValueError("give either --phi or --family, not both")
    if args.phi:
        mat = parse_matrix(args.phi)
        return mat, {"phi": args.phi}
    if args.family:
        return _family_phi(args)
    raise ValueError("a metric is required: --phi or --family")


def _psi_source(args, require_dim6: bool) -> tuple[np.ndarray, dict]:
    if args.psi and args.family:
        raise ValueError("give either --psi or --family, not both")
    if args.psi:
        dims = (6,) if require_dim6 else (3, 6)
        return parse_matrix(args.psi, allowed_dims=dims), {"psi": args.psi}
    if args.family:
        return _family_psi(args)
    raise ValueError("a variation derivative is required: --psi or --family")


def _budget(args) -> Budget:
    return Budget(samples=args.samples, restarts=args.restarts, iters=args.iters)


def _budget_config(args) -> dict:
    # the output destination is an execution detail, not part of the
    # semantic configuration, so it stays out of the report
    return {
        "seed": args.seed,
        "samples": args.samples,
        "restarts": args.restarts,
        "iters": args.iters,
        "tol": args.tol,
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args) -> tuple[dict, bool]:
    mat, source = _metric_source(args)
    metric = LeftInvariantMetric(_algebra_for(mat.shape[0]), mat)
    report = min_curvature(metric, budget=_budget(args), tol=args.tol, seed=args.seed)
    config = {**_budget_config(args), **source}
    return (
        {"command": "check", "config": config, "results": [report.to_dict()]},
        report.negative,
    )


def _cmd_infinitesimal(args) -> tuple[dict, bool]:
    psi, source = _psi_source(args, require_dim6=True)
    report = infinitesimal_check(
        so4(), psi, budget=_budget(args), tol=args.tol, seed=args.seed
    )
    config = {**_budget_config(args), **source}
    return (
        {"command": "infinitesimal", "config": config, "results": [report.to_dict()]},
        report.negative,
    )


def _cmd_path(args) -> tuple[dict, bool]:
    psi, source = _psi_source(args, require_dim6=False)
    grid = _parse_floats(args.t_grid)
    if not grid:
        raise ValueError("--t-grid must list at least one time")
    reports = path_scan(
        _algebra_for(psi.shape[0]),
        psi,
        grid,
        budget=_budget(args),
        tol=args.tol,
        seed=args.seed,
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("t,min_value,verdict\n")
            for rep in reports:
                fh.write(f"{rep.t!r},{rep.min_value!r},{rep.verdict}\n")
    config = {**_budget_config(args), **source, "t_grid": grid}
    payload = {
        "command": "path",
        "config": config,
        "results": [rep.to_dict() for rep in reports],
    }
    return payload, any(rep.negative for rep in reports)


def _cmd_family(args) -> tuple[dict, bool]:
    if args.kind == "metric":
        mat, source = _family_phi(args)
    else:
        mat, source = _family_psi(args)
    payload = {
        "command": "family",
        "config": {"kind": args.kind, **source, "seed": args.seed},
        "results": [
            {
                "matrix": [list(row) for row in mat],
                "eigenvalues": list(np.linalg.eigvalsh(mat)),
            }
        ],
    }
    return payload, False


def _cmd_reproduce(args) -> tuple[dict, bool]:
    if args.list:
        return (
            {"command": "reproduce", "config": {}, "results": suites.list_suites()},
            False,
        )
    if not args.suite:
        raise ValueError("--suite NAME or --list is required")
    result = suites.run_suite(args.suite, seed=args.seed)
    payload = {
        "command": "reproduce",
        "config": {"suite": args.suite, "seed": args.seed},
        "residuals": result.to_dict()["rows"],
        "results": [{"suite": result.suite, "pass": result.passed}],
    }
    return payload, not result.passed


# ---------------------------------------------------------------------------
# parser

def _add_budget_flags(p: argparse.ArgumentParser, default_seed: int):
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--samples", type=int, default=Budget().samples)
    p.add_argument("--restarts", type=int, default=Budget().restarts)
    p.add_argument("--iters", type=int, default=Budget().iters)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--output", "-o", default="-", help="report path, or - for stdout")


def _add_metric_family_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=("product", "torus", "s3-action"))
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", default="1,1,1")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--tau", default="1,0,1")
    p.add_argument("--phi1")
    p.add_argument("--phi2")


def _add_psi_family_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=("torus", "s3-action"))
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", default="1,1,1")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--d", type=float, default=0.0)
    p.add_argument("--a1", type=float, default=0.0)
    p.add_argument("--a2", type=float, default=0.0)
    p.add_argument("--a3", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    default_seed = int(os.environ.get("LIECURV_SEED", "0"))
    parser = argparse.ArgumentParser(
        prog="liecurv",
        description="curvature checks for left-invariant metrics on so(3) and so(4)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="search a metric for negative curvature")
    p.add_argument("--phi", help="diag:d1,..., row-major list, or @file.json")
    _add_metric_family_flags(p)
    _add_budget_flags(p, default_seed)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("infinitesimal", help="check a variation derivative")
    p.add_argument("--psi", help="diag:d1,..., row-major list, or @file.json")
    _add_psi_family_flags(p)
    _add_budget_flags(p, default_seed)
    p.set_defaults(fn=_cmd_infinitesimal)

    p = sub.add_parser("path", help="scan an inverse-linear path over a time grid")
    p.add_argument("--psi", help="diag:d1,..., row-major list, or @file.json")
    _add_psi_family_flags(p)
    p.add_argument("--t-grid", required=True, help="comma-separated times")
    p.add_argument("--csv", help="also write t,min_value,verdict rows here")
    _add_budget_flags(p, default_seed)
    p.set_defaults(fn=_cmd_path)

    p = sub.add_parser("family", help="emit a generated family matrix")
    p.add_argument("--kind", choices=("metric", "derivative"), default="metric")
    _add_metric_family_flags(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--a1", type=float, default=0.0)
    p.add_argument("--a2", type=float, default=0.0)
    p.add_argument("--a3", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("reproduce", help="run a named verification suite")
    p.add_argument("--suite")
    p.add_argument("--list", action="store_true", help="list available suites")
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(fn=_cmd_reproduce)
    return parser


def _emit(text: str, output: str):
    if output == "-":
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        payload, failed = args.fn(args)
        payload["schema_version"] = SCHEMA_VERSION
        payload["version"] = __version__
        payload["wall_time_ms"] = int(1000 * (time.monotonic() - start))
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except (LieCurvError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(text, getattr(args, "output", "-"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
