"""Decoding geometry from symbols and the flat-connection calculus."""

import numpy as np
import pytest

import diracweyl as dw
from diracweyl.errors import EllipticityError, InputError
from diracweyl.fields import PeriodicChart, derivative_stack
from diracweyl import geometry
from diracweyl.geometry import (
    christoffel_symbols,
    coframe,
    teleparallel_coefficients,
)

N = 12


def _random_frame(seed, n=N):
    return dw.random_band_limited_frame(seed, n=n)


# --- decode round trips ------------------------------------------------------

def test_frame_round_trip_standard():
    fr = dw.standard_frame(8)
    sym = dw.symbol_from_frame(fr)
    back = dw.decode_frame(sym)
    assert np.abs(back.e - fr.e).max() < 1e-14


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_frame_round_trip_random(seed):
    fr = _random_frame(seed)
    back = dw.decode_frame(dw.symbol_from_frame(fr))
    assert np.abs(back.e - fr.e).max() < 1e-13


def test_metric_routes_agree():
    """Determinant polarisation and frame-sum give the same metric."""
    fr = _random_frame(5)
    sym = dw.symbol_from_frame(fr)
    g1 = dw.decode_metric(sym).g_contra
    g2 = dw.metric_from_frame(fr).g_contra
    assert np.abs(g1 - g2).max() < 1e-12


def test_metric_volume_flat():
    met = dw.decode_metric(dw.symbol_from_frame(dw.standard_frame(8)))
    assert np.abs(met.vol - 1.0).max() < 1e-13
    assert np.abs(met.g_cov - np.eye(3)).max() < 1e-13


def test_charge_standard_and_inverted():
    fr = dw.standard_frame(8)
    assert dw.topological_charge(dw.symbol_from_frame(fr)) == 1
    flipped = fr.e.copy()
    flipped[..., 2, :] *= -1.0
    assert dw.topological_charge(dw.symbol_from_frame(flipped)) == -1


@pytest.mark.parametrize("k3", [1, 2, 3])
def test_charge_twisted(k3):
    assert dw.topological_charge(dw.symbol_from_frame(dw.twisted_frame(k3, 8))) == 1


def test_degenerate_frame_rejected():
    e = dw.standard_frame(8).e.copy()
    e[..., 1, :] = e[..., 0, :]
    with pytest.raises(EllipticityError, match="ellipticity"):
        dw.symbol_from_frame(e)


def test_symbol_validation():
    good = dw.symbol_from_frame(dw.standard_frame(8)).sigma
    bad = good.copy()
    bad[..., 0, 0, 1] += 0.5j
    with pytest.raises(InputError, match="Hermitian"):
        dw.PrincipalSymbolField(bad)
    traced = good.copy()
    traced[..., 0, 0, 0] += 0.2
    traced[..., 0, 1, 1] += 0.2
    with pytest.raises(InputError, match="trace-free"):
        dw.PrincipalSymbolField(traced)
    with pytest.raises(InputError, match="shape"):
        dw.PrincipalSymbolField(np.zeros((4, 4, 4, 3, 3, 3)))


def test_orthonormalize_frame_gram_and_first_leg():
    rng = np.random.default_rng(9)
    e = np.tile(np.eye(3), (8, 8, 8, 1, 1)) + 0.2 * rng.standard_normal((8, 8, 8, 3, 3))
    fr = dw.orthonormalize_frame(e)
    gram = np.einsum("...ja,...ka->...jk", fr.e, fr.e)
    assert np.abs(gram - np.eye(3)).max() < 1e-12
    # Gram-Schmidt keeps the first leg's direction
    cross = np.cross(fr.e[..., 0, :], e[..., 0, :])
    assert np.abs(cross).max() < 1e-12


# --- torsion -----------------------------------------------------------------

class TestTorsion:
    def test_twisted_axial_and_trace(self):
        """The twist shows up as constant axial torsion -2*k3/3."""
        for k3 in (1, 2):
            fr = dw.twisted_frame(k3, 12)
            tor = dw.torsion(fr, dw.metric_from_frame(fr))
            assert np.abs(tor.axial_dual + 2.0 * k3 / 3.0).max() < 1e-12
            trace = np.einsum("...aa->...", tor.star_T)
            assert np.abs(trace + 2.0 * k3).max() < 1e-12
            assert tor.charge == 1

    def test_standard_frame_torsion_vanishes(self):
        fr = dw.standard_frame(8)
        tor = dw.torsion(fr, dw.metric_from_frame(fr))
        assert np.abs(tor.T).max() < 1e-13
        assert np.abs(tor.axial_dual).max() < 1e-13

    def test_route_residuals_reported(self):
        fr = _random_frame(7)
        tor = dw.torsion(fr, dw.metric_from_frame(fr))
        assert set(tor.route_residuals) == {
            "connection_vs_coframe",
            "hodge_vs_curl",
            "trace_vs_coframe_axial",
        }
        assert all(v < 1e-10 for v in tor.route_residuals.values())

    def test_torsion_antisymmetry(self):
        fr = _random_frame(8)
        tor = dw.torsion(fr, dw.metric_from_frame(fr))
        assert np.abs(tor.T + np.einsum("...abc->...acb", tor.T)).max() < 1e-12

    def test_microrotation_linearisation(self):
        """Small-rotation frames: (*T)_{ab} = d_a w_b - delta_ab div w + O(eps^2).

        For w = (0, 0, f(x1)) the divergence drops out and the dual
        torsion must equal d f/dx1 in the (1,3) slot to second order.
        """
        n, eps = 16, 1e-3
        x1 = PeriodicChart(n).mesh()[0]
        f = eps * np.sin(x1)
        e = np.tile(np.eye(3), (n, n, n, 1, 1))
        e[..., 0, 1] = f
        e[..., 1, 0] = -f
        fr = dw.FrameField(e)
        met = dw.metric_from_frame(fr)
        tor = dw.torsion(fr, met)
        lowered = np.einsum("...ga,...gb->...ab", met.g_cov, tor.star_T)
        expected = np.zeros((n, n, n, 3, 3))
        expected[..., 0, 2] = eps * np.cos(x1)
        assert np.abs(lowered - expected).max() < eps**2


def test_contortion_identity():
    """Flat connection = Levi-Civita + contortion built from its torsion."""
    fr = _random_frame(4, n=16)
    met = dw.metric_from_frame(fr)
    gam = teleparallel_coefficients(fr, met)
    t_low = np.einsum("...am,...mbc->...abc", met.g_cov, dw.torsion(fr, met).T)
    k_low = 0.5 * (
        t_low
        + np.einsum("...abc->...bac", t_low)
        + np.einsum("...abc->...bca", t_low)
    )
    k_up = np.einsum("...am,...mbc->...abc", met.g_contra, k_low)
    assert np.abs(gam - (christoffel_symbols(met) + k_up)).max() < 1e-8


def test_connection_kills_frame_derivative():
    """The defining property: each frame leg is parallel."""
    fr = dw.twisted_frame(1, 16)
    met = dw.metric_from_frame(fr)
    gam = teleparallel_coefficients(fr, met)
    de = derivative_stack(fr.e)
    cov = de + np.einsum("...amb,...jb->...mja", gam, fr.e)
    assert np.abs(cov).max() < 1e-12
    fr = _random_frame(2, n=16)
    met = dw.metric_from_frame(fr)
    cov = derivative_stack(fr.e) + np.einsum(
        "...amb,...jb->...mja", teleparallel_coefficients(fr, met), fr.e
    )
    assert np.abs(cov).max() < 1e-6


def test_coframe_duality():
    fr = _random_frame(6)
    cof = coframe(fr, dw.metric_from_frame(fr))
    pairing = np.einsum("...ja,...ka->...jk", fr.e, cof)
    assert np.abs(pairing - np.eye(3)).max() < 1e-12


# --- hodge -------------------------------------------------------------------

def test_hodge_star_flat_examples():
    met = dw.metric_from_frame(dw.standard_frame(8))
    one = np.ones((8, 8, 8))
    top = dw.hodge_star(met, one, 0)
    assert top.shape == (8, 8, 8, 3, 3, 3)
    assert abs(top[0, 0, 0, 0, 1, 2] - 1.0) < 1e-14
    assert abs(dw.hodge_star(met, top, 3) - one).max() < 1e-13
    dx1 = np.zeros((8, 8, 8, 3))
    dx1[..., 0] = 1.0
    two = dw.hodge_star(met, dx1, 1)
    assert abs(two[0, 0, 0, 1, 2] - 1.0) < 1e-14
    assert abs(two[0, 0, 0, 2, 1] + 1.0) < 1e-14


def test_hodge_double_star_is_identity_on_two_forms():
    rng = np.random.default_rng(13)
    fr = _random_frame(3, n=8)
    met = dw.metric_from_frame(fr)
    raw = rng.standard_normal((8, 8, 8, 3, 3))
    omega = raw - np.swapaxes(raw, -1, -2)
    back = dw.hodge_star(met, dw.hodge_star(met, omega, 2), 1)
    assert np.abs(back - omega).max() < 1e-12


def test_hodge_star_input_checks():
    met = dw.metric_from_frame(dw.standard_frame(8))
    with pytest.raises(InputError, match="degree"):
        dw.hodge_star(met, np.ones((8, 8, 8)), 4)
    with pytest.raises(InputError, match="antisymmetric"):
        dw.hodge_star(met, np.ones((8, 8, 8, 3, 3)), 2)
    with pytest.raises(InputError, match="component axes"):
        dw.hodge_star(met, np.ones((8, 8, 8)), 1)


# --- transport ---------------------------------------------------------------

class TestParallelTransport:
    def test_standard_frame_transport_is_identity(self):
        sym = dw.symbol_from_frame(dw.standard_frame(8))
        xi = np.array([0.3, -1.0, 0.7])
        out = dw.parallel_transport(sym, xi, np.zeros(3), np.array([1.0, 2.0, 3.0]))
        assert np.abs(out - xi).max() < 1e-12

    def test_norm_preserved_on_twisted(self):
        sym = dw.symbol_from_frame(dw.twisted_frame(1, 12))
        xi = np.array([0.0, 1.0, 0.0])
        a = np.array([0.2, 0.4, 1.1])
        b = np.array([2.0, 0.1, 4.0])
        out = dw.parallel_transport(sym, xi, a, b)
        # the twisted metric is Euclidean, so the coordinate norm is invariant
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_path_independence(self):
        """A flat connection transports independently of the route taken."""
        sym = dw.symbol_from_frame(dw.random_band_limited_frame(11, n=12))
        xi = np.array([1.0, 0.5, -0.25])
        a = np.zeros(3)
        mid = np.array([3.0, 1.0, 0.5])
        b = np.array([0.7, 5.0, 2.2])
        direct = dw.parallel_transport(sym, xi, a, b)
        via = dw.parallel_transport(sym, dw.parallel_transport(sym, xi, a, mid), mid, b)
        assert np.abs(direct - via).max() < 1e-9


# --- one pass over the coframe -------------------------------------------------

def test_torsion_differentiates_the_coframe_once(monkeypatch):
    """The three cross-check routes share one coframe and one derivative stack."""
    from diracweyl import geometry

    shapes = []

    def counting(values):
        shapes.append(values.shape)
        return derivative_stack(values)

    fr = _random_frame(1)
    met = dw.metric_from_frame(fr)
    monkeypatch.setattr(geometry, "derivative_stack", counting)
    dw.torsion(fr, met)
    assert shapes == [fr.e.shape]


def test_torsion_peak_memory(peak_mb):
    """At n=16 the four-fold coframe rebuild peaked at 7.44 MB of traced allocation."""
    fr = _random_frame(0, n=16)
    met = dw.metric_from_frame(fr)
    assert peak_mb(lambda: dw.torsion(fr, met)) <= 7.5


# --- closed-form pointwise algebra -------------------------------------------

FRAMES = {
    "random": lambda: _random_frame(3),
    "twisted": lambda: dw.twisted_frame(1, N),
    "strong": lambda: dw.random_band_limited_frame(4, n=N, amplitude=0.3),
}


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_closed_form_metric_matches_lapack(name):
    """g_cov = adj(g)/det(g), vol = 1/sqrt(det g) and det e against np.linalg."""
    fr = FRAMES[name]()
    for met in (dw.metric_from_frame(fr), dw.decode_metric(dw.symbol_from_frame(fr))):
        g_cov = np.linalg.inv(met.g_contra)
        assert np.abs(met.g_cov - g_cov).max() <= 1e-13 * np.abs(g_cov).max()
        vol = np.sqrt(np.linalg.det(g_cov))
        assert np.abs(met.vol / vol - 1.0).max() <= 1e-13
    d = geometry._det3(fr.e)
    want = np.linalg.det(fr.e)
    assert np.abs(d / want - 1.0).max() <= 1e-13
    flipped = fr.e.copy()
    flipped[..., 0, :] *= -1.0
    assert dw.FrameField(flipped).orientation() == -fr.orientation() == -1


def _polarised_metric(sigma):
    """g^{ab} = -(det(s^a + s^b) - det s^a - det s^b)/2, as determinants."""
    def det2(m):
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    d = det2(sigma)
    pair = det2(sigma[..., :, None, :, :] + sigma[..., None, :, :, :])
    return (-0.5 * (pair - d[..., :, None] - d[..., None, :])).real


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_metric_bilinear_form_matches_polarised_determinants(name):
    sigma = dw.symbol_from_frame(FRAMES[name]()).sigma
    got = geometry._metric_from_sigma(sigma)
    assert np.array_equal(got, np.swapaxes(got, -1, -2))
    assert np.abs(got - _polarised_metric(sigma)).max() <= 1e-14


def _dual_by_raised_contraction(metric, forms):
    """(1/2) sqrt(det g) eps_{efb} g^{ec} g^{fd} w_{cd}, indices raised first."""
    g = metric.g_contra[..., None, :, :]
    raised = np.swapaxes(g, -1, -2) @ forms @ g
    dual = np.tensordot(raised, geometry.EPSILON, axes=((-2, -1), (0, 1)))
    return 0.5 * dual * metric.vol[..., None, None]


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_dual_2forms_matches_raised_contraction(name):
    fr = FRAMES[name]()
    met = dw.metric_from_frame(fr)
    w = np.random.default_rng(1).standard_normal(fr.e.shape[:3] + (3, 3, 3))
    w = w - np.swapaxes(w, -1, -2)
    want = _dual_by_raised_contraction(met, w)
    assert np.abs(geometry._dual_2forms(met, w) - want).max() <= 1e-14 * np.abs(want).max()
    tor = dw.torsion(fr, met)
    want = _dual_by_raised_contraction(met, tor.T)
    assert np.abs(tor.star_T - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


# --- one ellipticity check per symbol ------------------------------------------

def test_decode_metric_does_not_recheck_ellipticity(monkeypatch):
    sym = dw.symbol_from_frame(_random_frame(2))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    met = dw.decode_metric(sym)
    assert calls == []
    dw.MetricField(met.g_contra)
    assert calls == [met.g_contra.shape]


def test_indefinite_metric_field_still_rejected():
    g = np.broadcast_to(np.eye(3), (8, 8, 8, 3, 3)).copy()
    g[3, 4, 5, 2, 2] = -0.5
    with pytest.raises(EllipticityError, match=r"grid point \(3, 4, 5\)"):
        dw.MetricField(g)
    e = dw.standard_frame(8).e.copy()
    e[..., 2, :] = e[..., 1, :]
    with pytest.raises(EllipticityError):
        dw.metric_from_frame(dw.FrameField(e))


def test_verdict_analysis_inverts_no_grid_matrices(monkeypatch):
    """Metric inverse, density and orientation come from closed forms, so a
    full analysis leaves np.linalg.inv and np.linalg.det to 3x3 point work."""
    op = dw.gauge_transform(
        dw.dirac_operator(_random_frame(4, n=16)), dw.random_gauge_field(5, 16)
    )
    pts = np.array([[0, 1, 2], [5, 7, 11]])
    shapes = []
    for name in ("inv", "det"):
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, **kwargs):
            shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    sym = op.sigma
    frame, metric = dw.decode_frame(sym), dw.decode_metric(sym)
    dw.topological_charge(sym)
    dw.torsion(frame, metric)
    assert dw.check_dirac(op).is_dirac
    dw.b_density(op)
    dw.b1_density_fiber(op, pts)
    dw.b2_density_fiber_torsion(sym, pts)
    dw.b2_density_fiber_curvature(sym, pts)
    assert all(len(s) <= 2 for s in shapes), shapes
