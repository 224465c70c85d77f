"""Workloads of the verdict benchmark: seeded inputs, calls and known answers.

A workload is a fixed cycle of item kinds.  Item ``i`` draws its inputs from
``SeedSequence(seed, spawn_key=(i,))`` through liecurv's public constructors
only, so the inputs depend on the workload seed and the item index and never
on the code under test.  Each item is one user-level call (a verdict, a path
scan or a suite) at its default budget, and its result is checked against an
answer known in closed form.  No call passes ``workers`` or a ``Budget``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import liecurv as lc
from liecurv import cli

# the verification functions' default tolerance
TOL = 1e-9
# a family member has flat planes, so its minimum is zero to within TOL
FLAT_TOL = 1e-9
BERGER_REL_TOL = 1e-9
ENLARGE_REL_TOL = 1e-6
PATTERN_TOL = 1e-8

SUITE_NAMES = (
    "lemma-2.1-fd",
    "lemma-2.2-fd",
    "example-2.3",
    "example-2.4",
    "eq-yy",
    "th1-identities",
    "obs-3.1-planes",
    "obs-3.2-paths",
)
FAMILY_KINDS = ("product", "torus")


@dataclass(frozen=True)
class Item:
    index: int
    kind: str
    inputs: dict


@dataclass(frozen=True)
class Checked:
    """A checked result: ``errors`` is empty when it matches the known answer;
    ``outcome`` is what must repeat exactly at the same seed."""

    errors: tuple[str, ...]
    outcome: object


class Context:
    """Per-run state shared by the calls: the algebras and a temporary directory."""

    def __init__(self, tmpdir: Path):
        self.g3 = lc.so3()
        self.g4 = lc.so4()
        self.tmpdir = tmpdir


# ---------------------------------------------------------------------------
# input generators (public constructors and the benchmark's own RNG only)

def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _automorphism(rng, swap: bool) -> np.ndarray:
    """diag(Q1, Q2) with Q1, Q2 in SO(3), optionally followed by the factor
    swap: an orthogonal automorphism of so(4), so curvature is unchanged."""
    s = np.zeros((6, 6))
    s[:3, :3] = _rotation(rng)
    s[3:, 3:] = _rotation(rng)
    return s[[3, 4, 5, 0, 1, 2]] if swap else s


def _conjugate(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    out = s @ m @ s.T
    return 0.5 * (out + out.T)


def _stratum(lo: float, hi: float, k: int, strata: int) -> tuple[float, float]:
    """The k-th of ``strata`` equal parts of [lo, hi]."""
    width = (hi - lo) / strata
    return lo + k * width, lo + (k + 1) * width


def _berger_block(rng, lo: float, hi: float):
    """s Q diag(r, 1, 1) Q^T on so(3); its minimum sectional curvature is
    min(r, 4 - 3r) / (4 s), negative exactly when r > 4/3."""
    r = rng.uniform(lo, hi)
    s = rng.uniform(0.5, 2.0)
    q = _rotation(rng)
    return s * q @ np.diag([r, 1.0, 1.0]) @ q.T, r, s


def _berger_triple(rng) -> np.ndarray:
    """Two equal entries and a third at most 4/3 of them, scaled and permuted."""
    vals = rng.uniform(0.5, 2.0) * np.array([rng.uniform(0.2, 4.0 / 3.0), 1.0, 1.0])
    return vals[rng.permutation(3)]


def _quotient_block(rng) -> np.ndarray:
    """A nonnegatively curved so(3) block: a rotated 3-dim quotient metric."""
    eigs = lc.s3_quotient_eigenvalues(rng.uniform(0.5, 2.0), _berger_triple(rng))
    q = _rotation(rng)
    return q @ np.diag(eigs) @ q.T


def _product(rng) -> np.ndarray:
    p = lc.ProductParams(phi1=_quotient_block(rng), phi2=_quotient_block(rng))
    return lc.product_phi(p)


def _torus(rng) -> np.ndarray:
    c, d = rng.uniform(0.5, 2.0, size=2)
    eigs = rng.uniform(0.2, 0.98, size=2) * (4.0 / 3.0) * min(c, d)
    theta = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    a = np.zeros(6)
    b = np.zeros(6)
    a[:3] = _rotation(rng)[:, 0]
    b[3:] = _rotation(rng)[:, 0]
    params = lc.TorusParams(c=c, d=d, tau_block=rot @ np.diag(eigs) @ rot.T)
    return lc.torus_phi(params, a, b)


def _quotient(rng) -> np.ndarray:
    params = lc.S3ActionParams(
        a=rng.uniform(0.5, 2.0), b=rng.uniform(0.5, 2.0), lam=_berger_triple(rng)
    )
    return _conjugate(_automorphism(rng, False), lc.s3_action_phi(params))


def _call_seed(rng) -> int:
    """The seed passed to the call itself (search starts, suite draws)."""
    return int(rng.integers(0, 2**31))


def _gen_so4_berger(rng, occurrence):
    # r is stratified: every cycle holds one item from each quarter of [1.4, 2],
    # because the search slows as r nears 4/3
    blk, r, s = _berger_block(rng, *_stratum(1.4, 2.0, occurrence % 4, 4))
    other = _quotient_block(rng)
    swap = bool(rng.random() < 0.5)
    phi = lc.product_phi(lc.ProductParams(phi1=blk, phi2=other))
    return {
        "phi": _conjugate(_automorphism(rng, swap), phi),
        "expected": (1.0 - 0.75 * r) / s,
        "seed": _call_seed(rng),
    }


def _gen_so4_family(make):
    def gen(rng, occurrence):
        return {"phi": make(rng), "expected": 0.0, "seed": _call_seed(rng)}

    return gen


def _gen_so3_berger(lo, hi):
    def gen(rng, occurrence):
        blk, r, s = _berger_block(rng, lo, hi)
        return {
            "phi": 0.5 * (blk + blk.T),
            "expected": min(r, 4.0 - 3.0 * r) / (4.0 * s),
            "seed": _call_seed(rng),
        }

    return gen


def _gen_path(rng, occurrence):
    """A three-point scan of the inverse-linear path from the bi-invariant
    metric to a product or torus family member, reached at t = 1.

    The family alternates, so every seed sees the same mix; quotient-family
    paths are replayed by the obs-3.2-paths suite.
    """
    family = FAMILY_KINDS[occurrence % 2]
    h = _product(rng) if family == "product" else _torus(rng)
    psi = np.eye(6) - np.linalg.inv(h)
    return {
        "family": family,
        "psi": 0.5 * (psi + psi.T),
        "grid": np.array([0.25, 0.5, 0.75]),
        "seed": _call_seed(rng),
    }


def _gen_projector(sign):
    def gen(rng, occurrence):
        c = rng.uniform(0.5, 1.5)
        s = _automorphism(rng, bool(rng.random() < 0.5))
        proj = lc.diagonal_subalgebra(lc.so4()).projector
        return {"psi": sign * c * _conjugate(s, proj), "c": c, "seed": _call_seed(rng)}

    return gen


def _gen_torus_psi(rng, occurrence):
    c, d, a1, a2 = rng.uniform(-1.0, 1.0, size=4)
    psi = lc.torus_psi(c, d, a1, a2, rng.uniform(0.2, 1.0))
    s = _automorphism(rng, bool(rng.random() < 0.5))
    return {"psi": _conjugate(s, psi), "seed": _call_seed(rng)}


def _gen_quotient_psi(rng, occurrence):
    alpha, beta = rng.uniform(-1.0, 0.9, size=2)
    psi = lc.s3_action_psi(alpha, beta, _berger_triple(rng))
    s = _automorphism(rng, bool(rng.random() < 0.5))
    return {"psi": _conjugate(s, psi), "seed": _call_seed(rng)}


def _gen_suite(name):
    def gen(rng, occurrence):
        return {"suite": name, "seed": _call_seed(rng)}

    return gen


# ---------------------------------------------------------------------------
# calls

def _call_min_curvature(algebra):
    def call(ctx: Context, inp):
        g = ctx.g4 if algebra == 4 else ctx.g3
        metric = lc.LeftInvariantMetric(g, inp["phi"])
        return metric, lc.min_curvature(metric, seed=inp["seed"])

    return call


def _call_path(ctx: Context, inp):
    return lc.path_scan(ctx.g4, inp["psi"], inp["grid"], seed=inp["seed"])


def _call_pair(normal_form: bool):
    def call(ctx: Context, inp):
        report = lc.infinitesimal_check(ctx.g4, inp["psi"], seed=inp["seed"])
        lemma = lc.lemma_k_check(ctx.g4, inp["psi"], seed=inp["seed"])
        nf = lc.psi_normal_form(ctx.g4, inp["psi"]) if normal_form else None
        return report, lemma, nf

    return call


def _call_suite(ctx: Context, inp):
    out = ctx.tmpdir / "suite-report.json"
    code = cli.main(
        ["reproduce", "--suite", inp["suite"], "--seed", str(inp["seed"]), "--output", str(out)]
    )
    return code, out.read_text(encoding="utf-8") if code == 0 else ""


# ---------------------------------------------------------------------------
# checks against known answers

def _witness_errors(metric, report) -> list[str]:
    """A NegativeWitness must re-evaluate below -tol through the Koszul oracle."""
    if report.verdict != lc.VERDICT_NEGATIVE:
        return []
    z1, z2 = (np.asarray(v) for v in report.witness)
    gram = metric.h(z1, z1) * metric.h(z2, z2) - metric.h(z1, z2) ** 2
    value = lc.koszul_oracle(metric, z1, z2) / gram
    return [] if value < -TOL else [f"witness re-evaluates to {value!r} through the oracle"]


def _rel_error(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _check_min_curvature(inp, result) -> Checked:
    metric, rep = result
    want = inp["expected"]
    errors = _witness_errors(metric, rep)
    if want < 0.0:
        if rep.verdict != lc.VERDICT_NEGATIVE:
            errors.append(f"verdict {rep.verdict}, expected {lc.VERDICT_NEGATIVE}")
        if not _rel_error(rep.min_value, want) <= BERGER_REL_TOL:
            errors.append(f"min_value {rep.min_value!r}, expected {want!r}")
    else:
        if rep.verdict != lc.VERDICT_NONNEGATIVE:
            errors.append(f"verdict {rep.verdict}, expected {lc.VERDICT_NONNEGATIVE}")
        if want == 0.0:
            ok = abs(rep.min_value) <= FLAT_TOL
        else:
            ok = _rel_error(rep.min_value, want) <= BERGER_REL_TOL
        if not ok:
            errors.append(f"min_value {rep.min_value!r}, expected {want!r}")
    return Checked(tuple(errors), (rep.verdict, rep.min_value.hex()))


def _check_path(inp, reports) -> Checked:
    errors = []
    if [r.t for r in reports] != [float(t) for t in inp["grid"]]:
        errors.append("scan times do not match the grid")
    for r in reports:
        if r.verdict != lc.VERDICT_NONNEGATIVE or not abs(r.min_value) <= FLAT_TOL:
            errors.append(f"t={r.t!r}: {r.verdict} {r.min_value!r}, expected a flat minimum")
    return Checked(tuple(errors), tuple((r.verdict, r.min_value.hex()) for r in reports))


def _check_pair(negative: bool):
    def check(inp, result) -> Checked:
        rep, lemma, nf = result
        errors = []
        if negative:
            want = -0.75 * inp["c"] ** 3
            if rep.verdict != lc.VERDICT_NEGATIVE:
                errors.append(f"verdict {rep.verdict}, expected {lc.VERDICT_NEGATIVE}")
            if not _rel_error(rep.min_value, want) <= ENLARGE_REL_TOL:
                errors.append(f"min_value {rep.min_value!r}, expected {want!r}")
        elif rep.verdict != lc.VERDICT_NONNEGATIVE:
            errors.append(f"verdict {rep.verdict}, expected {lc.VERDICT_NONNEGATIVE}")
        if not lemma.passed:
            errors.append(f"lemma_k_check failed with residual {lemma.max_residual!r}")
        off = None
        if nf is not None:
            off = nf.off_pattern_residual()
            if not off < PATTERN_TOL:
                errors.append(f"normal form off-pattern residual {off!r}")
        outcome = (
            rep.verdict,
            rep.min_value.hex(),
            lemma.max_residual.hex(),
            None if off is None else off.hex(),
        )
        return Checked(tuple(errors), outcome)

    return check


def _check_suite(inp, result) -> Checked:
    code, text = result
    if code != 0:
        return Checked((f"reproduce {inp['suite']} exited {code}",), (code,))
    report = json.loads(text)
    report.pop("wall_time_ms", None)  # the one field outside the determinism contract
    errors = [] if report["results"][0]["pass"] else [f"suite {inp['suite']} failed"]
    return Checked(tuple(errors), json.dumps(report, sort_keys=True))


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Kind:
    generate: object  # (rng, occurrence of this kind) -> inputs
    call: object  # (ctx, inputs) -> result
    check: object  # (inputs, result) -> Checked


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[str, ...]
    kinds: dict
    trace_cycles: int  # whole cycles in a traced run; fixed so counts repeat

    def item(self, seed: int, index: int) -> Item:
        cycle, pos = divmod(index, len(self.cycle))
        kind = self.cycle[pos]
        occurrence = cycle * self.cycle.count(kind) + self.cycle[:pos].count(kind)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        return Item(index, kind, self.kinds[kind].generate(rng, occurrence))

    def run(self, ctx: Context, item: Item):
        return self.kinds[item.kind].call(ctx, item.inputs)

    def check(self, item: Item, result) -> Checked:
        return self.kinds[item.kind].check(item.inputs, result)


# so(3) verdicts are the majority by count and so(4) verdicts and the path scan
# take most of the time.  The median then falls inside the tight cluster of
# so(3) latencies; so(4) latencies vary threefold from input to input (a
# search either stops early or runs its full budget), and a median among a
# few dozen of them moves with the draw.
_PLANE_CYCLE = (
    "so4-berger",
    "so3-berger",
    "so3-nonneg",
    "so4-product",
    "so3-berger",
    "so3-nonneg",
    "so4-quotient",
    "so3-berger",
    "so3-nonneg",
    "so4-berger",
    "so3-berger",
    "so3-nonneg",
    "so4-torus",
    "path",
)


def _plane_verdicts() -> Workload:
    so4, so3 = _call_min_curvature(4), _call_min_curvature(3)
    check = _check_min_curvature
    kinds = {
        "so4-berger": Kind(_gen_so4_berger, so4, check),
        "so4-product": Kind(_gen_so4_family(_product), so4, check),
        "so4-torus": Kind(_gen_so4_family(_torus), so4, check),
        "so4-quotient": Kind(_gen_so4_family(_quotient), so4, check),
        "so3-berger": Kind(_gen_so3_berger(1.4, 2.0), so3, check),
        "so3-nonneg": Kind(_gen_so3_berger(0.3, 1.3), so3, check),
        "path": Kind(_gen_path, _call_path, _check_path),
    }
    return Workload("plane-verdicts", _PLANE_CYCLE, kinds, trace_cycles=1)


# Shrink items (about 0.7 s, all alike) run twice per cycle, so the median and,
# with at most ten quotient items (the slowest kind) in a run, the tail fall
# inside their cluster rather than at the edge between two kinds.
_PAIR_CYCLE = ("enlarge", "shrink", "torus", "shrink", "quotient")


def _pair_verdicts() -> Workload:
    kinds = {
        "enlarge": Kind(_gen_projector(1.0), _call_pair(False), _check_pair(True)),
        "torus": Kind(_gen_torus_psi, _call_pair(True), _check_pair(False)),
        "shrink": Kind(_gen_projector(-1.0), _call_pair(False), _check_pair(False)),
        "quotient": Kind(_gen_quotient_psi, _call_pair(True), _check_pair(False)),
    }
    return Workload("pair-verdicts", _PAIR_CYCLE, kinds, 2)


# The five suites that take about 0.2 s run a second time, at another suite
# seed, in each pass.  Three suites take 0.1 s or less, and with them at three
# of eight items the median would sit at the fast edge of the slower suites'
# latencies, where a short spell of machine speed moves it.
_SUITE_CYCLE = (
    *SUITE_NAMES,
    "lemma-2.2-fd",
    "example-2.3",
    "example-2.4",
    "th1-identities",
    "obs-3.2-paths",
)


def _suite_replay() -> Workload:
    kinds = {name: Kind(_gen_suite(name), _call_suite, _check_suite) for name in SUITE_NAMES}
    return Workload("suite-replay", _SUITE_CYCLE, kinds, trace_cycles=2)


WORKLOADS = {w.name: w for w in (_plane_verdicts(), _pair_verdicts(), _suite_replay())}


def inputs_digest(items) -> str:
    """SHA-256 over the kinds and input bytes of a sequence of items."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.kind.encode())
        for key in sorted(item.inputs):
            value = np.asarray(item.inputs[key])
            h.update(f"{key}:{value.dtype.str}:{value.shape}".encode())
            h.update(value.tobytes())
    return h.hexdigest()
