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
1 when a negative witness or failed residual appears, 2 on invalid input
(a bad ``reproduce`` seed or ``LIECURV_SEED``, an unwritable output path, a
missing ``--family``, a family flag the chosen family does not take, and
``--seed``, ``--samples``, ``--restarts`` or ``--iters`` on a verdict
command included).

Only ``reproduce`` draws random numbers, from ``--seed`` or, when that is
not given, ``LIECURV_SEED`` (default 0); the verdict commands take no seed.
Reports are strict JSON (sorted keys, no NaN or infinity; non-finite input
exits 2); for a fixed configuration the output is byte-identical across
runs, except for the ``wall_time_ms`` field.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__, families, suites
from .algebra import so3, so4
from .errors import LieCurvError
from .metric import LeftInvariantMetric
from .verify import DEFAULT_TOL, infinitesimal_check, min_curvature, path_scan

SCHEMA_VERSION = 3
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


def _product_phi(v: dict) -> np.ndarray:
    if not (v["phi1"] and v["phi2"]):
        raise ValueError("product family needs --phi1 and --phi2")
    blocks = (parse_matrix(v[k], allowed_dims=(3,)) for k in ("phi1", "phi2"))
    return families.product_phi(families.ProductParams(*blocks))


def _torus_phi(v: dict) -> np.ndarray:
    t = v["tau"]
    if len(t) != 3:
        raise ValueError("--tau expects t11,t12,t22")
    tau = np.array([[t[0], t[1]], [t[1], t[2]]])
    return families.torus_phi(families.TorusParams(c=v["c"], d=v["d"], tau_block=tau))


# kind -> family -> (its flags with their defaults, its builder).  The type
# of a default says how the flag is read: a float is a number, a string a
# comma-separated number list, and None (no default) a matrix spec that the
# builder parses.  A builder maps the flag values, by flag name, to the
# family's matrix.  A flag's default belongs to its kind: ``--c`` is 1 for
# the torus metric and 0 for the torus derivative.
_FAMILIES = {
    "metric": {
        "product": ({"phi1": None, "phi2": None}, _product_phi),
        "torus": ({"c": 1.0, "d": 1.0, "tau": "1,0,1"}, _torus_phi),
        "s3-action": (
            {"a": 1.0, "b": 1.0, "lambda": "1,1,1"},
            lambda v: families.s3_action_phi(
                families.S3ActionParams(a=v["a"], b=v["b"], lam=np.asarray(v["lambda"]))
            ),
        ),
    },
    "derivative": {
        "torus": (
            {"c": 0.0, "d": 0.0, "a1": 0.0, "a2": 0.0, "a3": 0.0},
            lambda v: families.torus_psi(**v),
        ),
        "s3-action": (
            {"alpha": 0.0, "beta": 0.0, "lambda": "1,1,1"},
            lambda v: families.s3_action_psi(v["alpha"], v["beta"], np.asarray(v["lambda"])),
        ),
    },
}


# every family flag, in table order
_FAMILY_FLAGS = tuple(
    dict.fromkeys(f for t in _FAMILIES.values() for defaults, _ in t.values() for f in defaults)
)


def _reject_stray_flags(args, allowed, where: str):
    """A given family flag outside ``allowed`` is an error, never ignored."""
    stray = [f"--{f}" for f in _FAMILY_FLAGS if getattr(args, f, None) is not None and f not in allowed]
    if stray:
        raise ValueError(f"{', '.join(stray)} not accepted {where}")


def _family(args, kind: str) -> tuple[np.ndarray, dict]:
    """The ``--family`` matrix of this kind and its config entries."""
    choices = ", ".join(_FAMILIES[kind])
    if args.family is None:
        raise ValueError(f"--family is required: one of {choices}")
    if args.family not in _FAMILIES[kind]:
        raise ValueError(f"unknown {kind} family: {args.family} (choices: {choices})")
    defaults, build = _FAMILIES[kind][args.family]
    flags = ", ".join(f"--{f}" for f in defaults)
    _reject_stray_flags(args, defaults, f"by the {kind} family {args.family} (its flags: {flags})")
    values = {}
    for flag, default in defaults.items():
        value = getattr(args, flag)
        value = default if value is None else value
        values[flag] = _parse_floats(value) if isinstance(default, str) else value
    return build(values), {"family": args.family, **values}


def _source(args, flag: str, kind: str, dims) -> tuple[np.ndarray, dict]:
    """The input matrix, from ``--<flag>`` or from ``--family``."""
    spec = getattr(args, flag)
    if spec and args.family:
        raise ValueError(f"give either --{flag} or --family, not both")
    if spec:
        _reject_stray_flags(args, (), f"with --{flag}; family flags need --family")
        return parse_matrix(spec, allowed_dims=dims), {flag: spec}
    if args.family:
        return _family(args, kind)
    noun = "metric" if kind == "metric" else "variation derivative"
    raise ValueError(f"a {noun} is required: --{flag} or --family")


def _verdicts(args, command: str, source: dict, reports, **extra) -> tuple[dict, bool]:
    """The payload of ``check``, ``infinitesimal`` and ``path``.

    The output destination is an execution detail, not part of the semantic
    configuration, so it stays out of the report.
    """
    config = {"tol": args.tol, **source, **extra}
    payload = {"command": command, "config": config, "results": [r.to_dict() for r in reports]}
    return payload, any(r.negative for r in reports)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args) -> tuple[dict, bool]:
    mat, source = _source(args, "phi", "metric", (3, 6))
    metric = LeftInvariantMetric(_algebra_for(mat.shape[0]), mat)
    report = min_curvature(metric, tol=args.tol)
    return _verdicts(args, "check", source, [report])


def _cmd_infinitesimal(args) -> tuple[dict, bool]:
    psi, source = _source(args, "psi", "derivative", (6,))
    report = infinitesimal_check(so4(), psi, tol=args.tol)
    return _verdicts(args, "infinitesimal", source, [report])


def _cmd_path(args) -> tuple[dict, bool]:
    psi, source = _source(args, "psi", "derivative", (3, 6))
    grid = _parse_floats(args.t_grid)
    if not grid:
        raise ValueError("--t-grid must list at least one time")
    g = _algebra_for(psi.shape[0])
    reports = path_scan(g, psi, grid, tol=args.tol)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("t,min_value,verdict\n")
            for rep in reports:
                fh.write(f"{rep.t!r},{rep.min_value!r},{rep.verdict}\n")
    return _verdicts(args, "path", source, reports, t_grid=grid)


def _cmd_family(args) -> tuple[dict, bool]:
    mat, source = _family(args, args.kind)
    payload = {
        "command": "family",
        "config": {"kind": args.kind, **source},
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

def _seed(text: str) -> int:
    """argparse type of ``--seed`` and of ``LIECURV_SEED``: an integer >= 0."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer from --seed or LIECURV_SEED, got {text!r}"
        )
    return seed


def _add_family_flags(p: argparse.ArgumentParser, *kinds: str):
    """Declare ``--family`` and each flag of these kinds' families once.

    The flags default to None, so ``_family`` can tell an omitted flag from
    a given one and fill in the default of the kind it builds.
    """
    tables = [_FAMILIES[kind] for kind in kinds]
    p.add_argument("--family", choices=tuple(dict.fromkeys(f for t in tables for f in t)))
    flags = {f: d for t in tables for defaults, _ in t.values() for f, d in defaults.items()}
    for flag, default in flags.items():
        p.add_argument(f"--{flag}", type=float if isinstance(default, float) else str)


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The parser, built once per process, and its ``reproduce`` parser, the
    one that takes ``--seed``."""
    parser = argparse.ArgumentParser(
        prog="liecurv",
        description="curvature checks for left-invariant metrics on so(3) and so(4)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="search a metric for negative curvature")
    p.add_argument("--phi", help="diag:d1,..., row-major list, or @file.json")
    _add_family_flags(p, "metric")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("infinitesimal", help="check a variation derivative")
    p.add_argument("--psi", help="diag:d1,..., row-major list, or @file.json")
    _add_family_flags(p, "derivative")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(fn=_cmd_infinitesimal)

    p = sub.add_parser("path", help="scan an inverse-linear path over a time grid")
    p.add_argument("--psi", help="diag:d1,..., row-major list, or @file.json")
    _add_family_flags(p, "derivative")
    p.add_argument("--t-grid", required=True, help="comma-separated times")
    p.add_argument("--csv", help="also write t,min_value,verdict rows here")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(fn=_cmd_path)

    p = sub.add_parser("family", help="emit a generated family matrix")
    p.add_argument("--kind", choices=tuple(_FAMILIES), default="metric")
    _add_family_flags(p, *_FAMILIES)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("reproduce", help="run a named verification suite")
    p.add_argument("--suite")
    p.add_argument("--list", action="store_true", help="list available suites")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(fn=_cmd_reproduce)

    for p in sub.choices.values():
        p.add_argument("--output", "-o", default="-", help="report path, or - for stdout")
    return parser, sub.choices["reproduce"]


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: built on the first call, not on import, and
    shared by every later call.

    Each call defaults ``reproduce --seed`` to ``LIECURV_SEED`` as it is
    set now.  A string default goes through the flag's type, so argparse
    rejects a bad LIECURV_SEED exactly as it rejects a bad --seed.  Every
    parse fills a new namespace, so no flag carries over to the next call.
    """
    parser, reproduce = _parsers()
    reproduce.set_defaults(seed=os.environ.get("LIECURV_SEED", "0"))
    return parser


def _emit(text: str, output: str):
    if output == "-":
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        payload, failed = args.fn(args)
        payload["schema_version"] = SCHEMA_VERSION
        payload["version"] = __version__
        payload["wall_time_ms"] = int(1000 * (time.monotonic() - start))
        _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), args.output)
    except (LieCurvError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
