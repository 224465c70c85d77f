"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import functools
import json
import time

import numpy as np

from liecurv import (
    InverseLinearPath,
    LeftInvariantMetric,
    VERDICT_NEGATIVE,
    VERDICT_NONNEGATIVE,
    diagonal_subalgebra,
    factor_subalgebra,
    infinitesimal_check,
    inverse_linear_eigs_s3,
    invariant_abelian_residual_many,
    k_of_t,
    k_second_deriv,
    kappa_of_t,
    kappa_third_deriv,
    koszul_oracle,
    min_curvature,
    normalized_curvature,
    path_scan,
    product_invariant_planes,
    product_phi,
    psi_normal_form,
    puttmann_curvature,
    s3_action_invariant_planes,
    s3_action_path_residual_many,
    s3_action_phi,
    s3_action_psi,
    s3_quotient_eigenvalues,
    sample_commuting_pairs,
    so3,
    so4,
    torus_invariant_planes,
    torus_phi,
    torus_psi,
)
from liecurv.cli import main as cli_main
from liecurv.suites import (
    bracket_identity_rows,
    family_scan_cases,
    random_product_params,
    random_s3_action_params,
    random_torus_params,
)
from liecurv.variation import default_step, refined_derivative

from conftest import random_spd, random_symmetric

G3 = so3()
G4 = so4()


def _criterion(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_oracle_agreement():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for g in (G3, G4):
        for _ in range(500):
            m = LeftInvariantMetric(g, random_spd(rng, g.dim))
            z1, z2 = rng.standard_normal((2, g.dim))
            a = puttmann_curvature(m, z1, z2)
            b = koszul_oracle(m, z1, z2)
            worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    elapsed = time.monotonic() - start
    _criterion(
        1,
        worst < 1e-8 and elapsed < 10.0,
        f"closed form vs Koszul oracle, 1000 draws: rel err {worst:.2e} "
        f"(tol 1e-8), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_02_bi_invariant_law():
    rng = np.random.default_rng(102)
    worst = 0.0
    for g in (G3, G4):
        m = LeftInvariantMetric(g, np.eye(g.dim))
        for _ in range(100):
            z1, z2 = rng.standard_normal((2, g.dim))
            lie = g.bracket(z1, z2)
            worst = max(worst, abs(puttmann_curvature(m, z1, z2) - 0.25 * lie @ lie))
    m4 = LeftInvariantMetric(G4, np.eye(6))
    exact = all(
        puttmann_curvature(m4, p.x, p.y) == 0.0
        for p in sample_commuting_pairs(G4, 100, seed=102)
    )
    _criterion(
        2,
        worst < 1e-12 and exact,
        f"identity metric: k = |[z1,z2]|^2/4 within {worst:.2e} (tol 1e-12); "
        f"constructed commuting pairs exactly flat: {exact}",
    )


def test_criterion_03_fixed_pair_derivatives():
    rng = np.random.default_rng(103)
    pairs = sample_commuting_pairs(G4, 500, seed=103)
    worst_fd1 = worst_rel = 0.0
    nonneg = True
    for pair in pairs:
        psi = random_symmetric(rng, 6)  # unit spectral norm; unit pair vectors
        path = InverseLinearPath(G4, psi)
        h = default_step(path)
        # one evaluation per stencil time: 0, +-h/2, +-h
        f = functools.cache(lambda t: k_of_t(path, pair.x, pair.y, t))
        worst_fd1 = max(worst_fd1, abs(refined_derivative(f, 0.0, 1, h)))
        closed = k_second_deriv(G4, psi, pair.x, pair.y)
        fd2 = refined_derivative(f, 0.0, 2, h)
        worst_rel = max(worst_rel, abs(fd2 - closed) / max(abs(closed), 1e-3))
        nonneg = nonneg and closed >= 0.0
    _criterion(
        3,
        worst_fd1 < 1e-6 and worst_rel < 1e-5 and nonneg,
        f"500 cases: |k'(0)| <= {worst_fd1:.2e} (tol 1e-6), closed k''(0) vs "
        f"finite differences rel {worst_rel:.2e} (tol 1e-5), k''(0) >= 0: {nonneg}",
    )


def test_criterion_04_twisted_derivatives():
    rng = np.random.default_rng(104)
    pairs = sample_commuting_pairs(G4, 500, seed=104)
    worst0 = worst1 = worst2 = worst_rel = 0.0
    for pair in pairs:
        psi = random_symmetric(rng, 6)
        path = InverseLinearPath(G4, psi)
        h = default_step(path)
        # one evaluation per stencil time: 0, +-h/2, +-h, +-2h
        f = functools.cache(lambda t: kappa_of_t(path, pair.x, pair.y, t))
        worst0 = max(worst0, abs(f(0.0)))
        worst1 = max(worst1, abs(refined_derivative(f, 0.0, 1, h)))
        worst2 = max(worst2, abs(refined_derivative(f, 0.0, 2, h)))
        closed = kappa_third_deriv(G4, psi, pair.x, pair.y)
        fd3 = refined_derivative(f, 0.0, 3, h)
        worst_rel = max(worst_rel, abs(fd3 - closed) / max(abs(closed), 1e-3))
    _criterion(
        4,
        worst0 < 1e-12 and worst1 < 1e-6 and worst2 < 1e-6 and worst_rel < 1e-4,
        f"500 cases: kappa(0) {worst0:.1e}, kappa'(0) {worst1:.1e}, "
        f"kappa''(0) {worst2:.1e} (tols 1e-12/1e-6/1e-6); third derivative "
        f"closed vs finite differences rel {worst_rel:.2e} (tol 1e-4)",
    )


def test_criterion_05_subalgebra_variations():
    pairs = sample_commuting_pairs(G4, 200, seed=105)
    worst_shrink = 0.0
    for sub in (factor_subalgebra(G4, 1), diagonal_subalgebra(G4)):
        psi = -sub.projector
        for pair in pairs:
            lie = G4.bracket(sub.projector @ pair.x, sub.projector @ pair.y)
            target = 6.0 * lie @ lie
            got = kappa_third_deriv(G4, psi, pair.x, pair.y)
            worst_shrink = max(worst_shrink, abs(got - target) / max(target, 1e-9))

    # flat-plane classification of the twisted planes at two fixed times
    sub = diagonal_subalgebra(G4)
    path = InverseLinearPath(G4, -sub.projector)
    rng = np.random.default_rng(105)
    mis = 0
    checked = 0
    while checked < 200:
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        if checked % 2 == 0:
            b = a.copy()
        else:
            b = rng.standard_normal(3)
            b /= np.linalg.norm(b)
        x, y = G4.embed_factor(a, 1), G4.embed_factor(b, 2)
        lie = G4.bracket(sub.projector @ x, sub.projector @ y)
        flat = np.linalg.norm(lie) < 1e-8
        if not flat and np.linalg.norm(lie) < 0.05:
            continue
        for t in (0.25, 0.5):
            m = np.eye(6) + t * sub.projector
            val = normalized_curvature(path.metric_at(t), m @ x, m @ y)
            mis += int((val < 1e-10) != flat)
        checked += 1

    # enlarging the diagonal subalgebra: worst pair has third derivative -3/4
    rep = infinitesimal_check(G4, sub.projector)
    enlarge_err = abs(rep.min_value + 0.75) / 0.75

    a = G4.embed_factor(np.array([1.0, 0, 0]), 1)
    b = G4.embed_factor(np.array([0.0, 1, 0]), 2)
    abelian_proj = np.outer(a, a) + np.outer(b, b)
    worst_abelian = max(
        abs(kappa_third_deriv(G4, abelian_proj, p.x, p.y)) for p in pairs
    )
    _criterion(
        5,
        worst_shrink < 1e-8 and mis == 0 and enlarge_err < 1e-6 and worst_abelian < 1e-9,
        f"shrink identity rel {worst_shrink:.2e} (tol 1e-8); flat-plane "
        f"misclassifications {mis}/400; enlarge minimum rel err "
        f"{enlarge_err:.2e} (tol 1e-6); abelian case {worst_abelian:.1e} (tol 1e-9)",
    )


def test_criterion_06_eigenvalue_formulas():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        a = rng.uniform(0.2, 3.0)
        lam = rng.uniform(0.1, 5.0, size=3)
        got = s3_quotient_eigenvalues(a, lam)
        worst = max(worst, np.abs(got - a * lam / (1.0 + lam)).max())
        alpha = rng.uniform(-2.0, 0.95)
        t = rng.uniform(0.0, 1.0)
        got = inverse_linear_eigs_s3(alpha, lam, t)
        worst = max(worst, np.abs(got - lam / (t + lam * (1 - alpha * t))).max())
        cutoff = np.abs(inverse_linear_eigs_s3(1.0, lam, 1.0) - lam).max()
        worst = max(worst, cutoff)
    _criterion(6, worst < 1e-14, f"closed-form eigenvalues within {worst:.2e} (tol 1e-14)")


def test_criterion_07_path_family_consistency():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(200):
        alpha, beta = rng.uniform(-1.5, 0.9, size=2)
        lam = rng.uniform(0.3, 3.0, size=3)
        cap = min(
            1.0 / alpha if alpha > 0 else np.inf,
            1.0 / beta if beta > 0 else np.inf,
            2.0,
        )
        t = rng.uniform(0.05, 0.95) * cap
        worst = max(worst, s3_action_path_residual_many([alpha], [beta], [lam], [t])[0])
    _criterion(
        7,
        worst < 1e-10,
        f"inverse-linear path vs family member, 200 draws: max gap {worst:.2e} (tol 1e-10)",
    )


def test_criterion_08_berger_threshold():
    boundary = LeftInvariantMetric(G4, np.diag([4.0 / 3.0, 1, 1, 1, 1, 1.0]))
    start = time.monotonic()
    rep = min_curvature(boundary)
    boundary_time = time.monotonic() - start
    boundary_ok = rep.verdict == VERDICT_NONNEGATIVE and rep.min_value >= -1e-9

    # the plane search draws no random number, so one run decides
    over = LeftInvariantMetric(G4, np.diag([1.4, 1, 1, 1, 1, 1.0]))
    start = time.monotonic()
    detected = min_curvature(over).verdict == VERDICT_NEGATIVE
    over_time = time.monotonic() - start
    _criterion(
        8,
        boundary_ok and detected and over_time < 30.0 and boundary_time < 30.0,
        f"4/3 boundary accepted ({boundary_ok}); r=1.4 detected ({detected}) at the "
        f"one run of {over_time:.1f}s (limit 30s)",
    )


def test_criterion_09_family_scans_and_planes():
    rng = np.random.default_rng(109)
    fractions = np.arange(1, 10) / 10.0
    lowest = np.inf
    negatives = 0
    worst_plane = 0.0
    for kind in ("product", "torus", "s3-action"):
        for _ in range(20):
            psi, cap = family_scan_cases(rng, kind)
            reports = path_scan(G4, psi, fractions * cap)
            negatives += sum(r.verdict == VERDICT_NEGATIVE for r in reports)
            lowest = min(lowest, min(r.min_value for r in reports))
    for _ in range(20):
        p = random_product_params(rng)
        q = random_torus_params(rng)
        s = random_s3_action_params(rng)
        worst_plane = max(worst_plane, *invariant_abelian_residual_many(
            G4,
            [product_phi(p), torus_phi(q), s3_action_phi(s)],
            [product_invariant_planes(p), torus_invariant_planes(), s3_action_invariant_planes()],
        ))
    _criterion(
        9,
        negatives == 0 and lowest >= -1e-9 and worst_plane < 1e-12,
        f"20 draws x 3 families x 9 times: {negatives} negatives, lowest "
        f"minimum {lowest:.2e} (tol -1e-9); invariant-plane residual "
        f"{worst_plane:.1e} (tol 1e-12)",
    )


def test_criterion_10_bracket_identity_suite():
    rows = bracket_identity_rows(110)
    worst = max(row.value for row in rows if row.tol == 1e-10)
    ok = all(row.passed for row in rows)
    _criterion(
        10,
        ok,
        f"{len(rows)} identity rows over 100 draws, one fitted constant: "
        f"max residual {worst:.2e} (tol 1e-10)",
    )


def test_criterion_11_normal_form():
    rng = np.random.default_rng(111)
    worst_pattern = worst_coupling = 0.0
    singular_seen = False
    for _ in range(20):
        psi = s3_action_psi(
            rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.3, 3.0, size=3)
        )
        nf = psi_normal_form(G4, psi)
        worst_pattern = max(worst_pattern, nf.off_pattern_residual())
        worst_coupling = max(worst_coupling, abs(nf.lambda_coupling), abs(nf.mu_coupling))
    for _ in range(20):
        c, d, a1, a2 = rng.uniform(-1, 1, size=4)
        nf = psi_normal_form(G4, torus_psi(c, d, a1, a2, rng.uniform(0.2, 1.0)))
        singular_seen = singular_seen or nf.singular_branch
        worst_pattern = max(worst_pattern, nf.off_pattern_residual())
        worst_coupling = max(worst_coupling, abs(nf.lambda_coupling), abs(nf.mu_coupling))
    rank_one = np.zeros((6, 6))
    rank_one[:3, :3] = np.diag([0.3, 0.8, 1.2])
    rank_one[3:, 3:] = np.diag([0.3, 0.6, 1.0])
    rank_one[0, 3] = rank_one[3, 0] = 0.7
    nf = psi_normal_form(G4, rank_one)
    singular_seen = singular_seen and nf.singular_branch
    _criterion(
        11,
        worst_pattern < 1e-8 and worst_coupling < 1e-10 and singular_seen,
        f"off-pattern residual {worst_pattern:.1e} (tol 1e-8); couplings "
        f"{worst_coupling:.1e} (tol 1e-10); singular branch exercised: {singular_seen}",
    )


def test_criterion_12_deterministic_reports(tmp_path):
    argv = ["check", "--phi", "diag:1.4,1,1,1,1,1", "--tol", "1e-10"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cli_main(argv + ["-o", str(out1)])
    cli_main(argv + ["-o", str(out2)])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    sa = json.dumps(a, sort_keys=True)
    sb = json.dumps(b, sort_keys=True)
    _criterion(
        12,
        sa == sb,
        "reports byte-identical across two runs "
        "(wall_time_ms excluded): " + str(sa == sb),
    )
