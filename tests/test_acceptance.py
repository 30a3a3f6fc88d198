"""Acceptance suite: one test per advertised guarantee, one line each.

Each test prints a PASS line with the measured numbers when it
succeeds; pytest -v adds the per-criterion pass/fail verdict.  The
frames shared by several criteria are built once at module scope.
"""

import time

import numpy as np
import pytest

import diracweyl as dw

GRID = 16
RANDOM_SEEDS = tuple(range(20))
TRIVIAL = dw.SpinStructure((0.0, 0.0, 0.0))
HALF3 = dw.SpinStructure((0.0, 0.0, 0.5))


def _suite_frames():
    frames = [("constant", dw.standard_frame(GRID))]
    for k3 in (1, 3):
        frames.append((f"twisted-k{k3}", dw.twisted_frame(k3, GRID)))
    for seed in RANDOM_SEEDS:
        frames.append((f"random-{seed}", dw.random_band_limited_frame(seed, n=GRID)))
    return frames


FRAMES = _suite_frames()


def _closed_ball_lattice_count(radius):
    """Integer-arithmetic count of {m in Z^3 : |m| <= radius}."""
    r = int(np.floor(radius)) + 1
    axis = np.arange(-r, r + 1)
    m2 = axis[:, None, None] ** 2 + axis[None, :, None] ** 2 + axis[None, None, :] ** 2
    return int((m2 <= radius * radius).sum())


def test_criterion_01_subprincipal_identity():
    """A_sub of every Dirac operator equals (3c/4)(*T_ax) I within 1e-8."""
    worst = 0.0
    for name, frame in FRAMES:
        gap = dw.check_dirac(dw.dirac_operator(frame)).reconstructed_gap
        worst = max(worst, gap)
        assert gap <= 1e-8, f"{name}: identity residual {gap:.3e}"
    print(f"criterion 1 PASS: identity residual <= {worst:.3e} over {len(FRAMES)} frames")


def test_criterion_02_curvature_identity():
    """u1 equals (c/2) (*T)(xi,xi)/g(xi,xi)^{3/2} at 50 samples per frame."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name, frame in FRAMES:
        sym = dw.symbol_from_frame(frame)
        met = dw.decode_metric(dw.symbol_from_frame(frame))
        tor = dw.torsion(frame, met)
        star_up = np.einsum("...ag,...gb->...ab", tor.star_T, met.g_contra)
        draws = [(rng.integers(0, GRID, 3), rng.standard_normal(3)) for _ in range(50)]
        idx, xis = (np.array(column) for column in zip(*draws))
        u1 = dw.u1_curvature(sym, 2.0 * np.pi * idx / GRID, xis)  # one call for the 50 samples
        for (i, j, k), xi, value in zip(idx, xis, u1):
            gxx = xi @ met.g_contra[i, j, k] @ xi
            closed = 0.5 * tor.charge * (xi @ star_up[i, j, k] @ xi) / gxx**1.5
            gap = abs(value - closed)
            worst = max(worst, gap)
            assert gap <= 1e-6, f"{name}: u1 identity residual {gap:.3e}"
    print(f"criterion 2 PASS: u1 identity residual <= {worst:.3e} (50 samples x {len(FRAMES)} frames)")


def test_criterion_03_b_density_cross_routes():
    """b2 closed form vs torsion/curvature quadratures (1e-6), b1 vs quadrature (1e-7)."""
    scenario_frames = [
        dw.standard_frame(GRID),
        dw.twisted_frame(1, GRID),
        dw.random_band_limited_frame(0, n=GRID),
    ]
    rng = np.random.default_rng(3)
    worst_b1, worst_tors, worst_curv = 0.0, 0.0, 0.0
    for frame in scenario_frames:
        sym = dw.symbol_from_frame(frame)
        op = dw.dirac_operator(frame)
        idx = rng.integers(0, GRID, size=(5, 3))
        coeffs = dw.b_density(op)
        b1_grid, b2_grid = coeffs.b1, coeffs.b2
        b1_quad = dw.b1_density_fiber(op, idx)
        b2_tors = dw.b2_density_fiber_torsion(sym, idx)
        b2_curv = dw.b2_density_fiber_curvature(sym, idx)
        for row, (i, j, k) in enumerate(idx):
            gap1 = abs(b1_quad[row] - b1_grid[i, j, k])
            gap_tors = abs(b2_tors[row] - b2_grid[i, j, k])
            gap_curv = abs(b2_curv[row] - b2_grid[i, j, k])
            worst_b1 = max(worst_b1, gap1)
            worst_tors, worst_curv = max(worst_tors, gap_tors), max(worst_curv, gap_curv)
            assert gap1 <= 1e-7
            assert max(gap_tors, gap_curv) <= 1e-6
    print(f"criterion 3 PASS: b1 routes <= {worst_b1:.3e}, b2 torsion route <= {worst_tors:.3e}, "
          f"b2 curvature route <= {worst_curv:.3e}")


def test_criterion_04_dirac_characterisation():
    """Verdicts: true Diracs pass at 1e-8, the two perturbations fail as computed."""
    for name, frame in FRAMES[:8]:
        verdict = dw.check_dirac(dw.dirac_operator(frame))
        assert verdict.is_dirac, name
        assert max(
            verdict.cond_a_residual, verdict.cond_b_residual, verdict.reconstructed_gap
        ) <= 1e-8, name

    shifted = dw.check_dirac(dw.dirac_plus_scalar(dw.standard_frame(GRID), 0.3))
    assert not shifted.is_dirac
    gap_b = abs(shifted.cond_b_residual - 0.3 / (2.0 * np.pi**2))
    assert gap_b <= 1e-8
    b_global = dw.b_density(dw.dirac_plus_scalar(dw.standard_frame(GRID), 0.3)).b_global
    gap_global = abs(b_global + 1.2 * np.pi)
    assert gap_global <= 1e-6

    traceless = dw.check_dirac(dw.dirac_plus_traceless(dw.standard_frame(GRID), 0.1))
    assert not traceless.is_dirac
    gap_a = abs(traceless.cond_a_residual - 0.1)
    assert gap_a <= 1e-9
    print(
        "criterion 4 PASS: dirac verdicts true; "
        f"+0.3I cond_b gap {gap_b:.2e}, b_global gap {gap_global:.2e}; "
        f"+0.1 s3 cond_a gap {gap_a:.2e}"
    )


def test_criterion_05_exact_torus_counting():
    """N(lambda)+1 equals the lattice count at 200 random thresholds; zero modes."""
    table = dw.torus_exact_spectrum(TRIVIAL, 30.5)
    rng = np.random.default_rng(55)
    for lam in rng.uniform(1e-3, 30.0, size=200):
        assert dw.counting_function(table, lam) + 1 == dw.lattice_count((0, 0, 0), lam)
    zero = table.values == 0.0
    assert zero.sum() == 1 and table.multiplicities[zero][0] == 2
    shifted = dw.torus_exact_spectrum(HALF3, 5.0)
    assert np.abs(shifted.values).min() > 0.49
    print("criterion 5 PASS: N+1 = lattice count at 200 thresholds; zero modes as required")


def test_criterion_06_galerkin_matches_exact():
    """Cutoff-6 Galerkin reproduces both exact tables in [-2,2] within 1e-8."""
    t0 = time.monotonic()
    cases = (
        (dw.dirac_operator(dw.twisted_frame(1, GRID)), HALF3),
        (dw.dirac_operator(dw.standard_frame(GRID)), TRIVIAL),
    )
    worst = 0.0
    for op, shift in cases:
        got = dw.galerkin_spectrum(op, 6, window=(-2.0, 2.0))
        exact = dw.torus_exact_spectrum(shift, 2.5)
        keep = (exact.values >= -2.0) & (exact.values <= 2.0)
        want_vals = exact.values[keep]
        want_mults = exact.multiplicities[keep]
        assert len(got.values) == len(want_vals)
        gap = float(np.abs(got.values - want_vals).max())
        worst = max(worst, gap)
        assert gap <= 1e-8
        assert (got.multiplicities == want_mults).all()
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 6 PASS: eigenvalue gap <= {worst:.3e}, multiplicities exact, {elapsed:.1f}s")


def test_criterion_07_sphere_identity():
    """N(lambda) = lambda^3/3 - lambda/3 at every integer in [2,100]; mollified near it."""
    table = dw.sphere_exact_spectrum(101.0)
    for lam in range(2, 101):
        assert dw.counting_function(table, float(lam)) == (lam**3 - lam) // 3
    smooth = dw.mollified_count(dw.sphere_exact_spectrum(18.0), 10.0)
    gap = abs(smooth - 330.0)
    assert gap < 5.0
    print(f"criterion 7 PASS: exact cubic count on [2,100]; mollified(10) off by {gap:.2f}")


def test_criterion_08_counting_asymptotics():
    """Two-term growth on the flat torus, read at dyadic thresholds.

    The ball count (closed, origin included; the +1 convention is the
    one criterion 5 fixes) stays within 0.35 of (4/3) pi lambda^3 in
    lambda^2 units at lambda = 5, 10, 20, 40; window maxima decrease
    and the fitted remainder exponent stays below 2.
    """
    table = dw.torus_exact_spectrum(TRIVIAL, 40.5)
    a_global = 4.0 * np.pi / 3.0
    dyadic = (5.0, 10.0, 20.0, 40.0)
    oracle = {lam: _closed_ball_lattice_count(lam) for lam in dyadic}
    assert oracle == {5.0: 515, 10.0: 4169, 20.0: 33401, 40.0: 267761}

    worst = 0.0
    for lam in dyadic:
        ball = dw.counting_function(table, lam + 1e-9) + 1
        assert ball == oracle[lam]
        worst = max(worst, abs(ball - a_global * lam**3) / lam**2)
    assert worst <= 0.35

    report = dw.asymptotic_comparison(table, a_global, 0.0, lambda_range=(5.0, 40.0))
    assert report.decreasing, f"window maxima not decreasing: {report.window_maxima}"
    assert report.fitted_exponent <= 2.0
    print(
        f"criterion 8 PASS: dyadic scaled residual {worst:.4f} <= 0.35; "
        f"window maxima {[round(m, 3) for m in report.window_maxima]} decreasing; "
        f"exponent {report.fitted_exponent:.3f} <= 2"
    )


def test_criterion_09_gauge_invariance():
    """Verdicts and b agree across 10 gauge conjugations; the covering map behaves."""
    base = dw.dirac_operator(dw.random_band_limited_frame(0, n=GRID))
    coeffs = dw.b_density(base)
    worst_b = 0.0
    for seed in range(10):
        gauged = dw.gauge_transform(base, dw.random_gauge_field(seed, n=GRID))
        verdict = dw.check_dirac(gauged)
        assert verdict.is_dirac
        after = dw.b_density(gauged)
        gap = max(
            float(np.abs(after.b - coeffs.b).max()),
            abs(after.b_global - coeffs.b_global),
        )
        worst_b = max(worst_b, gap)
        assert gap <= 1e-8

    rng = np.random.default_rng(99)
    worst_homo = 0.0
    for _ in range(100):
        qa, qb = rng.standard_normal(4), rng.standard_normal(4)
        qa, qb = qa / np.linalg.norm(qa), qb / np.linalg.norm(qb)
        pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        ua = qa[0] * np.eye(2) + 1j * sum(q * s for q, s in zip(qa[1:], pauli))
        ub = qb[0] * np.eye(2) + 1j * sum(q * s for q, s in zip(qb[1:], pauli))
        ra, rb, rab = dw.so3_from_su2(ua), dw.so3_from_su2(ub), dw.so3_from_su2(ua @ ub)
        assert np.abs(ra @ ra.T - np.eye(3)).max() <= 1e-12
        worst_homo = max(worst_homo, float(np.abs(rab - ra @ rb).max()))
        assert worst_homo <= 1e-12
    print(f"criterion 9 PASS: b drift <= {worst_b:.3e} over 10 gauges; homomorphism gap <= {worst_homo:.3e}")


def test_criterion_10_lift_obstruction():
    """SU(2) lift exists exactly for even twists."""
    def rotation_field(k3, n):
        x3 = dw.PeriodicChart(n).mesh()[2]
        ang = k3 * x3
        o = np.zeros((n, n, n, 3, 3))
        o[..., 0, 0] = np.cos(ang)
        o[..., 0, 1] = -np.sin(ang)
        o[..., 1, 0] = np.sin(ang)
        o[..., 1, 1] = np.cos(ang)
        o[..., 2, 2] = 1.0
        return o

    lifted = dw.su2_lift(rotation_field(2, 12))
    assert isinstance(lifted, dw.GaugeField)
    blocked = dw.su2_lift(rotation_field(1, 12))
    assert isinstance(blocked, dw.Obstruction)
    assert blocked.axis == 3
    print("criterion 10 PASS: k3=2 lifts to SU(2); k3=1 reports the obstruction on axis 3")
