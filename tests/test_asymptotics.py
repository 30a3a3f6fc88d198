"""Two-term spectral growth coefficients and their cross-checks."""

import pickle
import sys

import numpy as np
import pytest

import diracweyl as dw
from conftest import trig_jets
from diracweyl.asymptotics import _monopole_curvature, _torsion_at
from diracweyl.errors import ConsistencyError, InputError
from diracweyl.fields import _grid_line_jets
from diracweyl.geometry import pauli_components, pauli_matrices

SAMPLE_INDICES = np.array([(0, 0, 0), (3, 7, 11), (8, 2, 5), (15, 15, 1), (4, 12, 9)])


@pytest.fixture(scope="module")
def random_setup():
    frame = dw.random_band_limited_frame(2)
    sym = dw.symbol_from_frame(frame)
    return frame, sym, dw.dirac_operator(frame)


def test_a_density_flat():
    a = dw.b_density(dw.dirac_operator(dw.standard_frame(8))).a
    assert np.abs(a - 1.0 / (6.0 * np.pi**2)).max() < 1e-14


def test_a_global_flat_torus():
    co = dw.b_density(dw.dirac_operator(dw.standard_frame(8)))
    assert abs(co.a_global - 4.0 * np.pi / 3.0) < 1e-12


class TestU1Curvature:
    def test_twisted_reference_value(self):
        """u1 at xi = e^1 on the twisted frame equals -1/2."""
        sym = dw.symbol_from_frame(dw.twisted_frame(1, 12))
        val = dw.u1_curvature(sym, [(0, 0, 0)], [(1.0, 0.0, 0.0)])
        assert abs(val[0] + 0.5) < 1e-9

    def test_homogeneous_of_degree_minus_one(self, random_setup):
        _, sym, _ = random_setup
        x, xi = [(1, 3, 5)], np.array([(0.7, -0.2, 0.4)])
        u1 = dw.u1_curvature(sym, x, xi)
        assert abs(dw.u1_curvature(sym, x, 3.0 * xi)[0] - u1[0] / 3.0) < 1e-9

    def test_twist_gauge_shifts_u1(self):
        """u1 follows the decoded frame, not the operator class.

        Conjugating the flat symbol by the k3 twist gauge moves u1 at
        xi = e^1 from 0 to -k3/2: the quantity is covariant (b1 picks
        up the compensating shift so the total b stays invariant).
        """
        std = dw.symbol_from_frame(dw.standard_frame(12))
        x, xi = [(0, 1, 2)], [(1.0, 0.0, 0.0)]
        assert abs(dw.u1_curvature(std, x, xi)[0]) < 1e-10
        twisted = dw.symbol_from_frame(dw.twisted_frame(2, 12))
        assert abs(dw.u1_curvature(twisted, x, xi)[0] + 1.0) < 1e-9

    def test_twisted_value_off_the_grid(self):
        """u1 = -k3/2 at xi = e^1 on the twisted frame, to rounding: the monopole form of the
        analytic frame p = e(x3) and its gradient, at x3 between grid points, and u1_curvature
        at every grid point of one line along x3."""
        k3, xi = 2, np.array([[1.0, 0.0, 0.0]])
        for x3 in (1.0, 0.37):
            c, s = np.cos(k3 * x3), np.sin(k3 * x3)
            dp = np.zeros((3, 3, 3))
            dp[2, :2, :2] = k3 * np.array([[-s, c], [-c, -s]])
            p = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
            assert abs(_monopole_curvature(p, dp, xi)[0] + 1.0) <= 1e-13
        sym = dw.symbol_from_frame(dw.twisted_frame(k3, 12))
        line = [(0, 0, i) for i in range(12)]
        assert np.abs(dw.u1_curvature(sym, line, np.repeat(xi, 12, axis=0)) + 1.0).max() <= 1e-13


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


def _symbol_at(p):
    """The three symbol matrices sigma^a = s^j p_j^a of the components p_j^a at a point, (3, 2, 2)."""
    return pauli_matrices(np.swapaxes(p, -1, -2))


def _jets_at(sym, x):
    """p and its gradient at one point x anywhere on the torus, by conftest.trig_jets."""
    return tuple(jet[0] for jet in trig_jets(sym.p, np.asarray(x)[None]))


# conj(v) @ EPS_CONJ.T is the negative-band eigenvector paired with the positive one v
EPS_CONJ = np.array([[0.0, -1.0], [1.0, 0.0]])


def _perturbation_frame(p, dp, xis):
    """Oracle: anchored positive eigenvectors and their derivatives by perturbation.

    For the symbol components p (3, 3) at a base point, their gradient dp
    (3, 3, 3), direction first, and covectors xis (K, 3) returns (smats, h, v, dv_dx,
    dv_dxi): the symbol matrices sigma^a, h = |m|, and the positive
    eigenvector v of sigma(xi) with its larger component (index 0 when
    m3 >= 0, else 1) kept real positive.  Both derivatives, shape
    (3, K, 2) with the slot index first, come from exact first-order
    perturbation of the 2x2 eigenproblem,

        d v = (v-* dM v) / (2 h) v- + i gamma v,

    with dM = sigma^a for the covector slot a and dM = (d_a sigma^b) xi_b
    for the coordinate slot a; the phase gamma keeps the anchored
    component of v real.
    """
    xis = np.atleast_2d(xis)
    smats = _symbol_at(p)
    ds = _symbol_at(dp)  # d_a sigma^b
    m = pauli_components(np.tensordot(xis, smats, axes=(1, 0)))
    h = np.linalg.norm(m, axis=1)
    anchors = (m[:, 2] < 0).astype(int)
    v = _anchored(smats, xis, anchors)
    v_minus = np.conj(v) @ EPS_CONJ.T
    idx = np.arange(len(xis))

    def derivative(dm):  # dm: (3, K or 1, 2, 2)
        coef = (np.conj(v_minus)[:, None, :] @ dm @ v[:, :, None])[..., 0, 0] / (2.0 * h)
        delta = coef[..., None] * v_minus
        gamma = -delta[:, idx, anchors].imag / v[idx, anchors].real
        return delta + 1j * gamma[..., None] * v

    dm_dx = np.tensordot(xis, ds, axes=(1, 1)).transpose(1, 0, 2, 3)
    return smats, h, v, derivative(dm_dx), derivative(smats[:, None])


def test_fiber_frame_derivatives_match_richardson_differences(random_setup):
    """Both oracle derivatives against finite differences with the anchor held fixed, off
    the grid through conftest.trig_jets."""
    _, sym, _ = random_setup
    rng = np.random.default_rng(8)
    for _ in range(4):
        x = rng.uniform(0.0, 2.0 * np.pi, size=3)
        xis = rng.standard_normal((6, 3))
        p, dp = _jets_at(sym, x)
        s_x = _symbol_at(p)
        m = pauli_components(np.tensordot(xis, s_x, axes=(1, 0)))
        anchors = (m[:, 2] < 0).astype(int)
        _, h, v, dv_dx, dv_dxi = _perturbation_frame(p, dp, xis)
        mats = np.tensordot(xis, s_x, axes=(1, 0))  # sigma(xi), with det = -g(xi, xi)
        assert np.abs((mats @ v[:, :, None])[..., 0] - h[:, None] * v).max() <= 1e-12
        assert np.abs(np.linalg.det(mats) + h**2).max() <= 1e-12
        assert np.abs(v - _anchored(s_x, xis, anchors)).max() <= 1e-14
        ref_x = _richardson(lambda dx: _anchored(_symbol_at(_jets_at(sym, x + dx)[0]), xis, anchors))
        ref_xi = _richardson(lambda dxi: _anchored(s_x, xis + dxi, anchors))
        assert np.abs(dv_dx - ref_x).max() <= 1e-9
        assert np.abs(dv_dxi - ref_xi).max() <= 1e-9


def test_u1_curvature_matches_the_perturbation_oracle(random_setup):
    """The closed monopole form against 2 Im sum_a <d_{x^a} v+, d_{xi_a} v+>.

    20 seeded (x, xi), x a grid point, and at five more grid points covectors
    with m3 = 0 and m3 = +-1e-9, where the oracle's anchor switches.  The oracle
    reads p and its gradient as u1_curvature does, by fields._grid_line_jets.
    """
    _, sym, _ = random_setup
    rng = np.random.default_rng(11)
    xs = list(rng.integers(0, 16, size=(20, 3)))
    xis = list(rng.standard_normal((20, 3)))
    for x in rng.integers(0, 16, size=(5, 3)):
        row3 = sym.p[tuple(x)][2]  # m3 = row3 . xi
        flat = rng.standard_normal(3)
        flat -= (row3 @ flat) / (row3 @ row3) * row3
        for m3 in (0.0, 1e-9, -1e-9):
            xs.append(x)
            xis.append(flat + m3 / (row3 @ row3) * row3)
    xs, xis = np.array(xs), np.array(xis)
    ref = np.array([2.0 * np.einsum("akp,akp->k", np.conj(dx), dxi)[0].imag
                    for dx, dxi in (_perturbation_frame(p, dp, xi)[3:]
                                    for p, dp, xi in zip(*_grid_line_jets(sym.p, xs), xis))])
    assert np.all(np.abs(dw.u1_curvature(sym, xs, xis) - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("route", ["b2_density_fiber_curvature", "b2_density_fiber_torsion",
                                   "u1_curvature"])
def test_routes_read_the_grid_lines_once_per_call(route, random_setup, monkeypatch):
    """p is read once per call, however many base points and quadrature nodes:
    one pass of fields._grid_line_jets over the grid lines through the points."""
    _, sym, _ = random_setup
    real, reads = dw.asymptotics._grid_line_jets, []

    def counting(values, points):
        reads.append(len(points))
        return real(values, points)

    monkeypatch.setattr(dw.asymptotics, "_grid_line_jets", counting)
    xis = (np.ones(SAMPLE_INDICES.shape),) if route == "u1_curvature" else ()
    assert getattr(dw, route)(sym, SAMPLE_INDICES, *xis).shape == (len(SAMPLE_INDICES),)
    assert reads == [len(SAMPLE_INDICES)]


FIBER_ROUTES = ("b1_density_fiber", "b2_density_fiber_torsion", "b2_density_fiber_curvature")


def _fiber_route(route, op, points):
    """One fibre route at grid points: b1 reads the operator, the b2 routes its symbol."""
    return getattr(dw, route)(op if route == "b1_density_fiber" else op.sigma, points)


def _refuse(name):
    """A stand-in that raises AssertionError naming `name` whenever it is called."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refuse


def _refuse_everywhere(monkeypatch, real):
    """Make every diracweyl module's binding of the function `real` raise AssertionError."""
    for module in [m for key, m in sys.modules.items() if key.startswith("diracweyl")]:
        if getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, _refuse(real.__name__))


def test_fiber_routes_build_no_interpolant_and_no_grid_transform(random_setup, monkeypatch):
    """All three routes give their values unchanged with every binding of
    fields._derivative, the kernel of every whole-grid derivative, raising: they read
    p and its gradient off the grid lines through their points."""
    _, _, op = random_setup
    want = {route: _fiber_route(route, op, SAMPLE_INDICES) for route in FIBER_ROUTES}
    _refuse_everywhere(monkeypatch, dw.fields._derivative)
    with pytest.raises(AssertionError, match="was called"):
        dw.b_density(op)
    for route in FIBER_ROUTES:
        assert np.array_equal(_fiber_route(route, op, SAMPLE_INDICES), want[route])


def test_no_operator_path_calls_numpy_fft(random_setup, monkeypatch):
    """A derivative is one matrix product (fields._derivative), so no Fourier transform
    differentiates: with every numpy.fft function raising, the operator builders, the
    verdict, the densities, the derivative and the fibre routes give the same bits (the same
    pickle).  The inputs are built first: scenarios._trig_polynomial synthesises a random
    field by one ifftn."""
    frame, _, op = random_setup
    gauge = dw.random_gauge_field(3)
    calls = {
        "dirac_operator": lambda: dw.dirac_operator(frame),
        "gauge_transform": lambda: dw.gauge_transform(op, gauge),
        "check_dirac": lambda: dw.check_dirac(op),
        "b_density": lambda: dw.b_density(op),
        "subprincipal_symbol": lambda: dw.subprincipal_symbol(op),
        "spectral_derivative": lambda: dw.spectral_derivative(op.sigma.p, 2),
        **{route: lambda r=route: _fiber_route(r, op, SAMPLE_INDICES) for route in FIBER_ROUTES},
        "u1_curvature": lambda: dw.u1_curvature(op.sigma, SAMPLE_INDICES, np.ones((5, 3))),
    }
    want = {name: pickle.dumps(call()) for name, call in calls.items()}
    for name in np.fft.__all__:
        _refuse_everywhere(monkeypatch, getattr(np.fft, name))
        monkeypatch.setattr(np.fft, name, _refuse(f"numpy.fft.{name}"))
    with pytest.raises(AssertionError, match="numpy.fft.ifftn was called"):
        dw.random_gauge_field(3)
    assert [name for name, call in calls.items() if pickle.dumps(call()) != want[name]] == []


@pytest.fixture(scope="module")
def random_operator_32():
    return dw.dirac_operator(dw.random_band_limited_frame(2, 32))


@pytest.mark.parametrize("route", FIBER_ROUTES)
def test_fiber_route_peak_memory(route, random_operator_32, peak_mb):
    """5 points of a 32^3 operator: 0.04 MB traced, where the routes traced 2.9 MB (b1, a
    whole-grid A_sub) and 9.4 MB (each b2 route, an interpolant of p) before they read
    the grid lines through their points alone."""
    peak = peak_mb(lambda: _fiber_route(route, random_operator_32, SAMPLE_INDICES))
    print(f"{route}: traced peak {peak:.3f} MB")
    assert peak < 0.5


def test_generalized_poisson_identities(random_setup):
    """The bracket identities behind the curvature form of b2, at 20 seeded (x, xi).

    The bracket with the shifted principal symbol rewrites as -3 h+ times
    the plain curvature bracket (the projector drops out), and the
    curvatures of the two eigenbundles cancel.
    """
    _, sym, _ = random_setup
    rng = np.random.default_rng(1)
    eye = np.eye(2)
    for _ in range(20):
        x = rng.uniform(0.0, 2.0 * np.pi, size=3)
        xi = rng.normal(size=3)
        xi *= rng.uniform(0.5, 2.0) / np.linalg.norm(xi)
        smats, h, v, dv_dx, dv_dxi = _perturbation_frame(*_jets_at(sym, x), xi)
        h0, v0 = h[0], v[0]
        dx, dxi = dv_dx[:, 0, :], dv_dxi[:, 0, :]

        def bracket(q, dx=dx, dxi=dxi):
            left = np.einsum("ap,pq,aq->", np.conj(dx), q, dxi)
            return left - np.einsum("ap,pq,aq->", np.conj(dxi), q, dx)

        plain = bracket(eye)
        mat = np.tensordot(xi, smats, axes=(0, 0))
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
        grid = dw.b_density(op).b1
        for v, (i, j, k) in zip(vals, SAMPLE_INDICES):
            assert abs(v - grid[i, j, k]) < 1e-7

    def test_b2_torsion_fiber_matches_closed_form(self, random_setup):
        _, sym, op = random_setup
        vals = dw.b2_density_fiber_torsion(sym, SAMPLE_INDICES)
        grid = dw.b_density(op).b2
        for v, (i, j, k) in zip(vals, SAMPLE_INDICES):
            assert abs(v - grid[i, j, k]) < 1e-7

    def test_b2_curvature_fiber_matches_closed_form(self, random_setup):
        _, sym, op = random_setup
        vals = dw.b2_density_fiber_curvature(sym, SAMPLE_INDICES)
        grid = dw.b_density(op).b2
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
@pytest.mark.parametrize("route", [dw.b1_density_fiber, dw.b2_density_fiber_torsion,
                                   dw.b2_density_fiber_curvature, dw.u1_curvature])
def test_fiber_routes_refuse_bad_points(route, points, message):
    op = dw.dirac_operator(dw.standard_frame(8))
    target = op if route is dw.b1_density_fiber else op.sigma
    xis = (np.ones((2, 3)),) if route is dw.u1_curvature else ()
    with pytest.raises(InputError, match=message):
        route(target, points, *xis)


def test_u1_curvature_rejects_zero_covector(random_setup):
    _, sym, _ = random_setup
    with pytest.raises(InputError, match="zero"):
        dw.u1_curvature(sym, [(0, 0, 0)], np.zeros((1, 3)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda op: dw.u1_curvature(op.sigma, np.zeros(2), np.ones(3)), r"points must be a \(k, 3\)"),
        (lambda op: dw.u1_curvature(op.sigma, [(0, 0, 0)], np.ones(2)), "covector xi"),
        (lambda op: dw.u1_curvature(op.sigma, np.zeros((2, 3)), np.ones((3, 3))),
         "paired row by row"),
        (lambda op: dw.u1_curvature(op.sigma, np.zeros((1, 1, 3)), np.ones((1, 1, 3))),
         r"points must be a \(k, 3\)"),
        (lambda op: dw.u1_curvature(op.sigma, np.full((1, 3), np.nan), np.ones((1, 3))),
         "points row 0"),
        (lambda op: dw.u1_curvature(op.sigma, np.zeros((2, 3)), [[1.0, 0.0, 0.0], [0, np.inf, 0]]),
         "covector xi has non-finite entries"),
        (lambda op: dw.u1_curvature(op.sigma, [(0, 0, 0)], [[np.nan, 1.0, 0.0]]),
         "covector xi has non-finite entries"),
        (lambda op: dw.b1_density_fiber(op.sigma, [(0, 0, 0)]), "op must be a FirstOrderOperator"),
    ],
    ids=["u1-2-vector-point", "u1-2-vector-covector", "u1-unpaired-batch", "u1-rank-3-points",
         "u1-nan-point", "u1-inf-covector-in-batch", "u1-nan-covector", "b1-given-a-symbol"],
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
    coeffs = dw.b_density(shifted)
    b1, b2 = coeffs.b1, coeffs.b2
    assert np.abs(b1).max() > 0.01 and np.abs(b2).max() > 0.01
    idx = tuple(pts.T)
    gaps = {
        "b1": np.abs(dw.b1_density_fiber(shifted, pts) - b1[idx]).max(),
        "b2 torsion": np.abs(dw.b2_density_fiber_torsion(shifted.sigma, pts) - b2[idx]).max(),
        "b2 curvature": np.abs(dw.b2_density_fiber_curvature(shifted.sigma, pts) - b2[idx]).max(),
    }
    print({k: f"{v:.1e}" for k, v in gaps.items()})
    assert max(gaps.values()) <= 1e-12


def _mirrored_twist(n):
    """The k3 = 1 twisted frame with its third leg reversed: charge -1, non-zero torsion."""
    e = dw.twisted_frame(1, n).e.copy()
    e[..., 2, :] *= -1.0
    return dw.FrameField(e)


TORSION_POINT_CASES = {
    "random": lambda: dw.dirac_operator(dw.random_band_limited_frame(2, 16)),
    "twisted": lambda: dw.dirac_operator(dw.twisted_frame(3, 16)),
    "gauged": lambda: dw.gauge_transform(dw.dirac_operator(dw.twisted_frame(1, 16)),
                                         dw.random_gauge_field(1, 16)),
    "mirrored": lambda: dw.dirac_operator(_mirrored_twist(16)),
}


@pytest.mark.parametrize("case", sorted(TORSION_POINT_CASES) + ["curved"])
def test_torsion_at_points_matches_the_grid_bundle(case, curved_frame):
    """The fibre route's pointwise *T, g and charge against torsion's grid bundle, at every
    grid point: the independent check of the grid torsion.

    The route differentiates the frame by the chain rule and torsion the
    sampled coframe.  Measured full-grid gaps in *T: 1.1e-11 (random 16^3),
    3.5e-12 (gauged), 2.2e-14 (twisted), 1.3e-15 (mirrored) and 6.6e-14
    (curved 24^3), so the bound is 1e-10.  g is p^T p of the samples.
    """
    op = (dw.dirac_operator(curved_frame) if case == "curved" else TORSION_POINT_CASES[case]())
    sym = op.sigma
    n = sym.chart.n
    pts = np.indices((n, n, n)).reshape(3, -1).T  # every grid point, in C order
    metric = dw.decode_metric(sym)
    tor = dw.torsion(dw.decode_frame(sym), metric)
    star, g, charge = _torsion_at(sym, pts)
    gap = np.abs(star - tor.star_T.reshape(-1, 3, 3)).max()
    gap_g = np.abs(g - metric.g_contra.reshape(-1, 3, 3)).max()
    print(f"{case}: |*T - grid *T| = {gap:.1e}, |g - grid g| = {gap_g:.1e}")
    assert np.abs(tor.star).max() > 1e-3  # the comparison is not between zeros
    assert gap <= 1e-10
    assert gap_g <= 1e-11
    assert np.array_equal(charge, np.full(len(pts), tor.charge))


def test_torsion_route_does_not_call_geometry_torsion(random_setup, monkeypatch):
    """The b2 torsion route still runs with every binding of geometry.torsion raising."""
    _, sym, op = random_setup
    want = dw.b_density(op).b2[tuple(SAMPLE_INDICES.T)]
    _refuse_everywhere(monkeypatch, dw.geometry.torsion)
    with pytest.raises(AssertionError, match="was called"):
        dw.torsion(dw.decode_frame(sym), dw.decode_metric(sym))
    got = dw.b2_density_fiber_torsion(sym, SAMPLE_INDICES)
    assert np.abs(got - want).max() <= 1e-7


PULLBACK_CASES = [(name, n) for name in ("shear", "stretch", "two-shear") for n in (16, 24)]


def _edge_points(n):
    """Grid indices on the grid's edges and corners, and one inside."""
    return np.array([(0, 0, 0), (n - 1, n - 1, n - 1), (0, n - 1, n // 2), (n - 1, 0, 1), (3, 5, 7)])


@pytest.mark.parametrize("name, n", PULLBACK_CASES)
def test_fiber_routes_on_pullback_frames_are_the_flat_values_times_j(name, n, pullback_frame):
    """Dirac plus 0.3 I of a pulled-back flat frame: b1 = J (-0.3 / 2 pi^2) and b2 = 0
    exactly, so each route is held to 1e-15 (measured at most 8.7e-18 and 5.1e-18)."""
    frame, jac, _ = pullback_frame(name, n)
    op = dw.dirac_plus_scalar(frame, 0.3)
    pts = _edge_points(n)
    want = {"b1_density_fiber": jac[tuple(pts.T)] * (-0.3 / (2.0 * np.pi**2)),
            "b2_density_fiber_torsion": 0.0, "b2_density_fiber_curvature": 0.0}
    gaps = {route: np.abs(_fiber_route(route, op, pts) - want[route]).max()
            for route in FIBER_ROUTES}
    print(f"{name} {n}^3: " + ", ".join(f"{route} {gap:.1e}" for route, gap in gaps.items()))
    assert max(gaps.values()) <= 1e-15


@pytest.mark.parametrize("name, n", PULLBACK_CASES)
def test_pullback_frames_decode_to_the_pulled_back_geometry(name, n, pullback_frame):
    """Torsion 0 within 1e-13 (measured at most 4.3e-15), charge 1 and g_cov = dphi^T dphi
    within 1e-12."""
    frame, _, dphi = pullback_frame(name, n)
    sym = dw.symbol_from_frame(frame)
    metric = dw.decode_metric(sym)
    tor = dw.torsion(dw.decode_frame(sym), metric)
    torsion_gap = np.abs(tor.components).max()
    metric_gap = np.abs(metric.g_cov - np.swapaxes(dphi, -1, -2) @ dphi).max()
    print(f"{name} {n}^3: |T| = {torsion_gap:.1e}, |g_cov - dphi^T dphi| = {metric_gap:.1e}")
    assert torsion_gap <= 1e-13
    assert tor.charge == 1 and dw.topological_charge(sym) == 1
    assert metric_gap <= 1e-12


def _curved_frame_pulled_back(n):
    """(e', J, phi^3) for conftest's curved frame pulled back by the torus diffeomorphism
    phi = (x1 + 0.3 sin x3, x2, x3 + 0.1 sin x3): e' = (d phi)^{-1} e o phi, row j the leg
    e'_j, and J = det d phi = 1 + 0.1 cos x3.  e depends on x3 alone, so e o phi is the
    curved frame's closed form at phi^3, and e' depends on x3 alone too."""
    x3 = dw.PeriodicChart(n).mesh()[2]
    y = x3 + 0.1 * np.sin(x3)
    f = 1.0 + 0.1 * np.cos(y)
    e = np.zeros((n, n, n, 3, 3))
    e[..., 0, 0], e[..., 0, 1] = f * np.cos(y), f * np.sin(y)
    e[..., 1, 0], e[..., 1, 1] = -np.sin(y), np.cos(y)
    e[..., 2, 2] = 1.0
    dphi = np.broadcast_to(np.eye(3), (n, n, n, 3, 3)).copy()
    dphi[..., 0, 2], dphi[..., 2, 2] = 0.3 * np.cos(x3), 1.0 + 0.1 * np.cos(x3)
    return dw.FrameField(e @ np.swapaxes(np.linalg.inv(dphi), -1, -2)), dphi[..., 2, 2], y


def test_curved_torsionful_frame_pulled_back_is_covariant(curved_frame):
    """A torus diffeomorphism isotopic to the identity maps the Dirac operator of e, plus a
    scalar q, to one unitarily equivalent to that of e' = (d phi)^{-1} e o phi, plus q o phi, on
    half-densities.  So vol' = J vol o phi, *T'_ax = *T_ax o phi and b' = J b o phi pointwise,
    and the charges, the integrals of b and the verdicts are equal.  The base has a
    non-constant metric and torsion, and every field depends on x3 alone, so its values at
    phi^3 come from the unpruned Fourier sum of its x3 profile (conftest.trig_jets)."""
    n = curved_frame.e.shape[0]
    frame, jac, y = _curved_frame_pulled_back(n)
    line = np.stack([np.zeros(n), np.zeros(n), y[0, 0]], axis=1)  # (0, 0, phi^3) along x3

    def at_phi(field):
        return np.broadcast_to(trig_jets(field, line)[0], field.shape)

    x3 = dw.PeriodicChart(n).mesh()[2]
    base, pulled = (dw.dirac_operator(fr) for fr in (curved_frame, frame))
    shifted = [dw.FirstOrderOperator(op.sigma, op.a0 + (0.3 * np.cos(q))[..., None, None] * np.eye(2))
               for op, q in ((base, x3), (pulled, y))]
    metrics = [dw.decode_metric(op.sigma) for op in (base, pulled)]
    axial = [dw.torsion(dw.decode_frame(op.sigma), m).axial_dual for op, m in zip((base, pulled), metrics)]
    coeffs = [dw.b_density(op) for op in shifted]
    gaps = {"vol": (metrics[1].vol, jac * at_phi(metrics[0].vol)),
            "*T_ax": (axial[1], at_phi(axial[0])),
            "b": (coeffs[1].b, jac * at_phi(coeffs[0].b))}
    for name, (got, want) in gaps.items():
        gap, size = float(np.abs(got - want).max()), float(np.abs(want).max())
        print(f"{name}: off by {gap:.1e} of its largest {size:.2g}")
        assert gap <= 1e-12 * size, name
    print(f"integrals of b: {coeffs[0].b_global!r}, {coeffs[1].b_global!r}")
    assert abs(coeffs[1].b_global - coeffs[0].b_global) <= 1e-12
    assert np.abs(axial[0]).max() > 0.1 and np.ptp(metrics[0].vol) > 0.1
    assert dw.topological_charge(base.sigma) == dw.topological_charge(pulled.sigma) == 1
    assert dw.check_dirac(base).is_dirac and dw.check_dirac(pulled).is_dirac
