"""Two-term spectral growth coefficients and their cross-checks."""

import numpy as np
import pytest

import diracweyl as dw
from diracweyl.asymptotics import _FiberFrame
from diracweyl.errors import ConsistencyError, InputError
from diracweyl.fields import TrigInterpolant
from diracweyl.geometry import pauli_components, pauli_matrices
from diracweyl.operators import EPS_CONJ

SAMPLE_INDICES = np.array([(0, 0, 0), (3, 7, 11), (8, 2, 5), (15, 15, 1), (4, 12, 9)])


@pytest.fixture(scope="module")
def random_setup():
    frame = dw.random_band_limited_frame(2)
    sym = dw.symbol_from_frame(frame)
    return frame, sym, dw.dirac_operator(frame)


def test_a_density_flat():
    met = dw.decode_metric(dw.symbol_from_frame(dw.standard_frame(8)))
    a = dw.a_density(met)
    assert np.abs(a - 1.0 / (6.0 * np.pi**2)).max() < 1e-14


def test_a_global_flat_torus():
    co = dw.b_density(dw.dirac_operator(dw.standard_frame(8)))
    assert abs(co.a_global - 4.0 * np.pi / 3.0) < 1e-12


class TestU1Curvature:
    def test_twisted_reference_value(self):
        """u1 at xi = e^1 on the twisted frame equals -1/2."""
        sym = dw.symbol_from_frame(dw.twisted_frame(1, 12))
        val = dw.u1_curvature(sym, np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert abs(val + 0.5) < 1e-9

    def test_homogeneous_of_degree_minus_one(self, random_setup):
        _, sym, _ = random_setup
        x = np.array([0.3, 1.1, 2.0])
        xi = np.array([0.7, -0.2, 0.4])
        u1 = dw.u1_curvature(sym, x, xi)
        assert abs(dw.u1_curvature(sym, x, 3.0 * xi) - u1 / 3.0) < 1e-9

    def test_twist_gauge_shifts_u1(self):
        """u1 follows the decoded frame, not the operator class.

        Conjugating the flat symbol by the k3 twist gauge moves u1 at
        xi = e^1 from 0 to -k3/2: the quantity is covariant (b1 picks
        up the compensating shift so the total b stays invariant).
        """
        std = dw.symbol_from_frame(dw.standard_frame(12))
        x = np.array([0.2, 0.4, 1.0])
        xi = np.array([1.0, 0.0, 0.0])
        assert abs(dw.u1_curvature(std, x, xi)) < 1e-10
        twisted = dw.symbol_from_frame(dw.twisted_frame(2, 12))
        assert abs(dw.u1_curvature(twisted, x, xi) + 1.0) < 1e-9


    def test_twisted_value_off_the_grid(self):
        """u1 = -k3/2 at xi = e^1 on the twisted frame, to rounding."""
        sym = dw.symbol_from_frame(dw.twisted_frame(2, 12))
        val = dw.u1_curvature(sym, np.array([0.2, 0.4, 1.0]), np.array([1.0, 0.0, 0.0]))
        assert abs(val + 1.0) <= 1e-13


def _anchored(smats, xis, anchors):
    """Positive eigenvector of sigma^a xi_a with component `anchors` kept real positive."""
    m = pauli_components(np.tensordot(xis, smats, axes=(1, 0)))
    h = np.linalg.norm(m, axis=1)
    up = anchors == 0
    w = np.where(up, h + m[:, 2], h - m[:, 2])
    off = m[:, 0] + 1j * m[:, 1]
    v = np.stack([np.where(up, w, np.conj(off)), np.where(up, off, w)], axis=1)
    return v / np.sqrt(2.0 * h * w)[:, None]


def _richardson(f, step=1e-4):
    """Richardson-extrapolated central difference of f at 0 along the three unit vectors."""
    out = []
    for a in range(3):
        unit = np.eye(3)[a]
        d_full = (f(step * unit) - f(-step * unit)) / (2.0 * step)
        d_half = (f(0.5 * step * unit) - f(-0.5 * step * unit)) / step
        out.append((4.0 * d_half - d_full) / 3.0)
    return np.array(out)


def _symbol_at(interp, x):
    """The three symbol matrices sigma^a = s^j p_j^a at an arbitrary point, shape (3, 2, 2)."""
    return pauli_matrices(np.swapaxes(interp(x), -1, -2))


def test_fiber_frame_derivatives_match_richardson_differences(random_setup):
    """Both perturbation derivatives against finite differences with the anchor held fixed."""
    _, sym, _ = random_setup
    interp = TrigInterpolant(sym.p)
    rng = np.random.default_rng(8)
    for _ in range(4):
        x = rng.uniform(0.0, 2.0 * np.pi, size=3)
        xis = rng.standard_normal((6, 3))
        s_x = _symbol_at(interp, x)
        m = pauli_components(np.tensordot(xis, s_x, axes=(1, 0)))
        anchors = (m[:, 2] < 0).astype(int)
        h, v, dv_dx, dv_dxi = _FiberFrame(interp, x).eval(xis)
        mats = np.tensordot(xis, s_x, axes=(1, 0))  # sigma(xi), with det = -g(xi, xi)
        assert np.abs((mats @ v[:, :, None])[..., 0] - h[:, None] * v).max() <= 1e-12
        assert np.abs(np.linalg.det(mats) + h**2).max() <= 1e-12
        assert np.abs(v - _anchored(s_x, xis, anchors)).max() <= 1e-14
        ref_x = _richardson(lambda dx: _anchored(_symbol_at(interp, x + dx), xis, anchors))
        ref_xi = _richardson(lambda dxi: _anchored(s_x, xis + dxi, anchors))
        assert np.abs(dv_dx - ref_x).max() <= 1e-9
        assert np.abs(dv_dxi - ref_xi).max() <= 1e-9


def _count_interpolant_use(monkeypatch):
    """Patch TrigInterpolant to count builds and value and gradient evaluations."""
    calls = {"built": 0, "value": 0, "gradient": 0}
    for name, key in (("__init__", "built"), ("__call__", "value"), ("gradient", "gradient")):
        real = getattr(TrigInterpolant, name)

        def counting(self, *args, _real=real, _key=key):
            calls[_key] += 1
            return _real(self, *args)

        monkeypatch.setattr(TrigInterpolant, name, counting)
    return calls


def test_curvature_route_reads_the_interpolant_once_per_point(random_setup, monkeypatch):
    """One interpolant per call, and one value and one gradient evaluation per
    base point, however many quadrature nodes."""
    _, sym, _ = random_setup
    calls = _count_interpolant_use(monkeypatch)
    dw.b2_density_fiber_curvature(sym, SAMPLE_INDICES[:2])
    assert calls == {"built": 1, "value": 2, "gradient": 2}


def test_u1_curvature_batch_builds_one_interpolant(random_setup, monkeypatch):
    """k (x, xi) pairs take one interpolant and give the k single-pair values."""
    _, sym, _ = random_setup
    rng = np.random.default_rng(5)
    xs, xis = rng.uniform(0.0, 2.0 * np.pi, size=(4, 3)), rng.standard_normal((4, 3))
    singles = [dw.u1_curvature(sym, x, xi) for x, xi in zip(xs, xis)]
    assert all(isinstance(v, float) for v in singles)
    calls = _count_interpolant_use(monkeypatch)
    batch = dw.u1_curvature(sym, xs, xis)
    assert calls == {"built": 1, "value": 4, "gradient": 4}
    assert batch.shape == (4,) and np.array_equal(batch, singles)


def test_generalized_poisson_identities(random_setup):
    """The bracket identities behind the curvature form of b2, at 20 seeded (x, xi).

    The bracket with the shifted principal symbol rewrites as -3 h+ times
    the plain curvature bracket (the projector drops out), and the
    curvatures of the two eigenbundles cancel.
    """
    _, sym, _ = random_setup
    interp = TrigInterpolant(sym.p)
    rng = np.random.default_rng(1)
    eye = np.eye(2)
    for _ in range(20):
        x = rng.uniform(0.0, 2.0 * np.pi, size=3)
        xi = rng.normal(size=3)
        xi *= rng.uniform(0.5, 2.0) / np.linalg.norm(xi)
        fib = _FiberFrame(interp, x)
        h, v, dv_dx, dv_dxi = fib.eval(xi)
        h0, v0 = h[0], v[0]
        dx, dxi = dv_dx[:, 0, :], dv_dxi[:, 0, :]

        def bracket(q, dx=dx, dxi=dxi):
            left = np.einsum("ap,pq,aq->", np.conj(dx), q, dxi)
            return left - np.einsum("ap,pq,aq->", np.conj(dxi), q, dx)

        plain = bracket(eye)
        mat = np.tensordot(xi, fib.s_center, axes=(0, 0))
        assert abs(1.5j * bracket(mat - 2.0 * h0 * eye) + 4.5j * h0 * plain) < 1e-9
        assert abs(bracket(np.outer(v0, np.conj(v0)))) < 1e-9
        dx_m = np.conj(dx) @ EPS_CONJ.T
        dxi_m = np.conj(dxi) @ EPS_CONJ.T
        plain_minus = np.vdot(dx_m, dxi_m) - np.vdot(dxi_m, dx_m)
        assert abs(plain + plain_minus) < 1e-9


# --- densities -----------------------------------------------------------------

@pytest.mark.parametrize("k3", [1, 2])
def test_twisted_b1_b2_closed_forms(k3):
    frame = dw.twisted_frame(k3, 12)
    op = dw.dirac_operator(frame)
    co = dw.b_density(op)
    assert np.abs(co.b1 - k3 / (4.0 * np.pi**2)).max() < 1e-12
    assert np.abs(co.b2 + k3 / (4.0 * np.pi**2)).max() < 1e-12
    assert np.abs(co.b).max() < 1e-12
    assert co.charge == 1


def test_pure_dirac_has_vanishing_b(random_setup):
    _, _, op = random_setup
    co = dw.b_density(op)
    assert np.abs(co.b).max() < 1e-12
    assert abs(co.b_global) < 1e-12


def test_scalar_shift_b_values():
    op = dw.dirac_plus_scalar(dw.standard_frame(8), 0.3)
    co = dw.b_density(op)
    assert np.abs(co.b + 0.3 / (2.0 * np.pi**2)).max() < 1e-12
    assert abs(co.b_global + 1.2 * np.pi) < 1e-12


def test_b_decomposition_guarded():
    co = dw.b_density(dw.dirac_operator(dw.standard_frame(8)))
    with pytest.raises(ConsistencyError, match="decomposition"):
        dw.AsymptoticCoefficients(
            co.a, co.b1, co.b2, co.b + 1.0, co.a_global, co.b_global, co.charge
        )


class TestFiberRoutes:
    """Quadrature recomputations of the densities at sampled grid indices."""

    def test_b1_fiber_matches_closed_form(self, random_setup):
        _, _, op = random_setup
        vals = dw.b1_density_fiber(op, SAMPLE_INDICES)
        grid = dw.b1_density(op)
        for v, (i, j, k) in zip(vals, SAMPLE_INDICES):
            assert abs(v - grid[i, j, k]) < 1e-7

    def test_b2_torsion_fiber_matches_closed_form(self, random_setup):
        _, sym, _ = random_setup
        vals = dw.b2_density_fiber_torsion(sym, SAMPLE_INDICES)
        grid = dw.b2_density(sym)
        for v, (i, j, k) in zip(vals, SAMPLE_INDICES):
            assert abs(v - grid[i, j, k]) < 1e-7

    def test_b2_curvature_fiber_matches_closed_form(self, random_setup):
        _, sym, _ = random_setup
        vals = dw.b2_density_fiber_curvature(sym, SAMPLE_INDICES)
        grid = dw.b2_density(sym)
        for v, (i, j, k) in zip(vals, SAMPLE_INDICES):
            assert abs(v - grid[i, j, k]) < 1e-6

    def test_routes_on_twisted_frame(self):
        sym = dw.symbol_from_frame(dw.twisted_frame(1, 12))
        idx = np.array([(0, 0, 0), (5, 5, 5)])
        expect = -1.0 / (4.0 * np.pi**2)
        assert np.abs(dw.b2_density_fiber_torsion(sym, idx) - expect).max() < 1e-10
        assert np.abs(dw.b2_density_fiber_curvature(sym, idx) - expect).max() < 1e-6


@pytest.mark.parametrize(
    "points, message",
    [
        ([(0, 0, 0), (8, 0, 0)], "row 1"),
        ([(0, 0, 0), (1, -1, 2)], "row 1"),
        (np.array([(0.0, 1.5, 0.0)]), "row 0"),
        (np.array([1, 2, 3]), r"\(k, 3\)"),
    ],
    ids=["index-n", "index-minus-one", "fractional", "single-triple"],
)
@pytest.mark.parametrize(
    "route", [dw.b1_density_fiber, dw.b2_density_fiber_torsion, dw.b2_density_fiber_curvature]
)
def test_fiber_routes_refuse_bad_points(route, points, message):
    op = dw.dirac_operator(dw.standard_frame(8))
    target = op if route is dw.b1_density_fiber else op.sigma
    with pytest.raises(InputError, match=message):
        route(target, points)


def test_u1_curvature_rejects_zero_covector(random_setup):
    _, sym, _ = random_setup
    with pytest.raises(InputError, match="zero"):
        dw.u1_curvature(sym, np.zeros(3), np.zeros(3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda op: dw.u1_curvature(op.sigma, np.zeros(2), np.ones(3)), "base point x"),
        (lambda op: dw.u1_curvature(op.sigma, np.zeros(3), np.ones(2)), "covector xi"),
        (lambda op: dw.u1_curvature(op.sigma, np.zeros((2, 3)), np.ones((3, 3))),
         "must pair row by row"),
        (lambda op: dw.u1_curvature(op.sigma, np.zeros((1, 1, 3)), np.ones((1, 1, 3))),
         "base point x"),
        (lambda op: dw.b1_density_fiber(op.sigma, [(0, 0, 0)]), "op must be a FirstOrderOperator"),
    ],
    ids=["u1-2-vector-point", "u1-2-vector-covector", "u1-unpaired-batch", "u1-rank-3-points",
         "b1-given-a-symbol"],
)
def test_fiber_inputs_are_refused_by_name(call, message):
    op = dw.dirac_operator(dw.standard_frame(8))
    with pytest.raises(InputError, match=message):
        call(op)


def test_fiber_routes_match_closed_forms_on_a_curved_frame(curved_frame):
    """Dirac plus 0.2 cos(x3) I on a non-flat metric: b1 and b2 are both non-zero."""
    op = dw.dirac_operator(curved_frame)
    x3 = dw.PeriodicChart(24).mesh()[2]
    q = 0.2 * np.cos(x3)[..., None, None] * np.eye(2)
    shifted = dw.FirstOrderOperator(op.sigma, op.a0 + q)
    pts = np.array([(0, 0, 0), (3, 5, 7), (1, 2, 11), (4, 4, 17), (0, 9, 20)])
    b1, b2 = dw.b1_density(shifted), dw.b2_density(shifted.sigma)
    assert np.abs(b1).max() > 0.01 and np.abs(b2).max() > 0.01
    idx = tuple(pts.T)
    gaps = {
        "b1": np.abs(dw.b1_density_fiber(shifted, pts) - b1[idx]).max(),
        "b2 torsion": np.abs(dw.b2_density_fiber_torsion(shifted.sigma, pts) - b2[idx]).max(),
        "b2 curvature": np.abs(dw.b2_density_fiber_curvature(shifted.sigma, pts) - b2[idx]).max(),
    }
    print({k: f"{v:.1e}" for k, v in gaps.items()})
    assert max(gaps.values()) <= 1e-12
