"""Decoding geometry from symbols and the flat-connection calculus."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import diracweyl as dw
from diracweyl.errors import EllipticityError, InputError, gate
from diracweyl.fields import PeriodicChart, spectral_derivative
from diracweyl import geometry
from diracweyl.geometry import christoffel_symbols, coframe

N = 12

# Totally antisymmetric symbol, eps[0,1,2] = +1: eps[i, j] = e_i x e_j.
EPSILON = np.cross(np.eye(3)[:, None], np.eye(3))


def _derivative_stack(values):
    """The three coordinate derivatives of a grid field, stacked on a new axis at position 3."""
    return np.stack([spectral_derivative(values, a) for a in (1, 2, 3)], axis=3)


def _random_frame(seed, n=N):
    return dw.random_band_limited_frame(seed, n=n)


def _teleparallel_coefficients(fr, met):
    """Connection G[..., a, mu, b] = e_k^a d_mu c^k_b that makes the frame parallel."""
    return np.einsum("...ka,...mkb->...amb", fr.e, _derivative_stack(coframe(fr, met)))


def _pair_components(w):
    """The independent components w[..., k, h] = w_{h+1, h+2} (mod 3) of 2-forms w[..., k, b, c]."""
    return np.stack([w[..., 1, 2], w[..., 2, 0], w[..., 0, 1]], axis=-1)


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
    g2 = np.swapaxes(fr.e, -1, -2) @ fr.e
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


def test_fibre_triple_product_is_twice_i_det_p(curved_frame):
    """tr(sigma^1 sigma^2 sigma^3) = 2i det p, the identity the charge's fibre route reads."""
    for frame in (_random_frame(1), curved_frame):
        sym = dw.symbol_from_frame(frame)
        s = np.moveaxis(sym.sigma, -3, 0)
        trip = np.einsum("...pq,...qr,...rp->...", *s)
        assert np.abs(trip - 2j * np.linalg.det(sym.p)).max() <= 1e-15


def test_charge_builds_no_complex_symbol_stack(monkeypatch):
    calls = []
    real = geometry.pauli_matrices
    monkeypatch.setattr(geometry, "pauli_matrices", lambda c: calls.append(c.shape) or real(c))
    flipped = _random_frame(1).e.copy()
    flipped[..., 2, :] *= -1.0
    assert dw.topological_charge(dw.symbol_from_frame(flipped)) == -1
    assert calls == []


def test_degenerate_frame_rejected():
    e = dw.standard_frame(8).e.copy()
    e[..., 1, :] = e[..., 0, :]
    with pytest.raises(EllipticityError, match="ellipticity"):
        dw.symbol_from_frame(e)


@pytest.mark.parametrize("c", [1e-5, 1.0, 1e5])
def test_degeneracy_test_is_scale_invariant(c):
    """c e for the standard frame is as far from degenerate at any c: decode, charge and
    verdict agree with c = 1, and a frame with a vanishing leg is refused at every scale.
    With an absolute 1e-14 on det e, c = 1e-5 (det 1e-15) was refused as degenerate."""
    e = c * dw.standard_frame(8).e
    sym = dw.symbol_from_frame(e)
    assert dw.decode_frame(sym).orientation() == dw.topological_charge(sym) == 1
    assert dw.check_dirac(dw.dirac_operator(dw.FrameField(e))).is_dirac
    assert not dw.check_dirac(dw.dirac_plus_scalar(dw.FrameField(e), 0.3)).is_dirac
    flat = e.copy()
    flat[3, 4, 5, 1, :] = 0.0
    with pytest.raises(EllipticityError, match=r"degenerates at grid point \(3, 4, 5\)"):
        dw.FrameField(flat).orientation()
    with pytest.raises(EllipticityError, match="degenerates"):
        dw.FrameField(0.0 * e).orientation()


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
            tor = dw.torsion(fr, dw.decode_metric(dw.symbol_from_frame(fr)))
            assert np.abs(tor.axial_dual + 2.0 * k3 / 3.0).max() < 1e-12
            trace = np.einsum("...aa->...", tor.star_T)
            assert np.abs(trace + 2.0 * k3).max() < 1e-12
            assert tor.charge == 1

    def test_standard_frame_torsion_vanishes(self):
        fr = dw.standard_frame(8)
        tor = dw.torsion(fr, dw.decode_metric(dw.symbol_from_frame(fr)))
        assert np.abs(tor.T).max() < 1e-13
        assert np.abs(tor.axial_dual).max() < 1e-13

    def test_torsion_antisymmetry(self):
        fr = _random_frame(8)
        tor = dw.torsion(fr, dw.decode_metric(dw.symbol_from_frame(fr)))
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
        met = dw.decode_metric(dw.symbol_from_frame(fr))
        tor = dw.torsion(fr, met)
        lowered = np.einsum("...ga,...gb->...ab", met.g_cov, tor.star_T)
        expected = np.zeros((n, n, n, 3, 3))
        expected[..., 0, 2] = eps * np.cos(x1)
        assert np.abs(lowered - expected).max() < eps**2


def test_contortion_identity(curved_frame):
    """Flat connection = Levi-Civita + contortion built from its torsion, on a
    flat-metric random frame and on a curved frame with torsion."""
    for fr in (_random_frame(4, n=16), curved_frame):
        met = dw.decode_metric(dw.symbol_from_frame(fr))
        gam = _teleparallel_coefficients(fr, met)
        t_low = np.einsum("...am,...mbc->...abc", met.g_cov, dw.torsion(fr, met).T)
        k_low = 0.5 * (
            t_low
            + np.einsum("...abc->...bac", t_low)
            + np.einsum("...abc->...bca", t_low)
        )
        k_up = np.einsum("...am,...mbc->...abc", met.g_contra, k_low)
        gap = np.abs(gam - (christoffel_symbols(met) + k_up)).max()
        print(f"contortion identity residual {gap:.2e} at {fr.e.shape[0]}^3")
        assert gap < 1e-8


def test_connection_kills_frame_derivative():
    """The defining property: each frame leg is parallel."""
    fr = dw.twisted_frame(1, 16)
    met = dw.decode_metric(dw.symbol_from_frame(fr))
    gam = _teleparallel_coefficients(fr, met)
    de = _derivative_stack(fr.e)
    cov = de + np.einsum("...amb,...jb->...mja", gam, fr.e)
    assert np.abs(cov).max() < 1e-12
    fr = _random_frame(2, n=16)
    met = dw.decode_metric(dw.symbol_from_frame(fr))
    cov = _derivative_stack(fr.e) + np.einsum(
        "...amb,...jb->...mja", _teleparallel_coefficients(fr, met), fr.e
    )
    assert np.abs(cov).max() < 1e-6


def test_coframe_duality():
    fr = _random_frame(6)
    cof = coframe(fr, dw.decode_metric(dw.symbol_from_frame(fr)))
    pairing = np.einsum("...ja,...ka->...jk", fr.e, cof)
    assert np.abs(pairing - np.eye(3)).max() < 1e-12


# --- one pass over the coframe -------------------------------------------------

def test_torsion_differentiates_the_coframe_once(monkeypatch):
    """The torsion builds one coframe; direction mu differentiates it once, and only its
    six entries c^j_b with b != mu, read as a components-first view; nothing else is
    differentiated."""
    coframes, derivatives = [], []
    real_coframe, real_derivative = geometry._coframe, geometry._derivative

    def counting_coframe(*args):
        coframes.append(real_coframe(*args))
        return coframes[-1]

    def counting_derivative(values, axis):
        derivatives.append((values, axis))
        return real_derivative(values, axis)

    fr = _random_frame(1)
    met = dw.decode_metric(dw.symbol_from_frame(fr))
    monkeypatch.setattr(geometry, "_coframe", counting_coframe)
    monkeypatch.setattr(geometry, "_derivative", counting_derivative)
    dw.torsion(fr, met)
    assert len(coframes) == 1
    assert [axis for _, axis in derivatives] == [2, 3, 4]  # the grid axes of [b, j, ...]
    cof = coframes[0]  # c^j_b as [b, j, ...]
    for values, axis in derivatives:
        others = [(axis - 3) % 3, (axis - 1) % 3]  # b = mu - 1, mu + 1 for mu = axis - 2
        assert values.shape == (2, 3) + fr.e.shape[:3]
        assert np.shares_memory(values, cof)
        assert np.array_equal(values, cof[others])


def test_torsion_peak_memory(peak_mb):
    """At n=16 the four-fold coframe rebuild peaked at 7.44 MB of traced allocation and
    the one-stack version with full (n, n, n, 3, 3, 3) tensors at 3.38 MB; by component
    and by direction it was 1.81 MB, components first, differentiating six coframe
    entries per direction, 1.61 MB, and by the connection route alone it is 1.35 MB."""
    fr = _random_frame(0, n=16)
    met = dw.decode_metric(dw.symbol_from_frame(fr))
    assert peak_mb(lambda: dw.torsion(fr, met)) <= 2.0


def test_torsion_frees_its_rank_3_arrays_once_used(peak_mb):
    """Keeping each direction's derivative into the next direction's transforms, the
    coframe to the end and the route gaps alive peaked at 2.98 MB at n=16; freeing each
    once used gave 1.81 MB (1.61 MB components first, 1.35 MB by the connection route
    alone)."""
    fr = _random_frame(0, n=16)
    met = dw.decode_metric(dw.symbol_from_frame(fr))
    assert peak_mb(lambda: dw.torsion(fr, met)) <= 2.0


# --- closed-form pointwise algebra -------------------------------------------

FRAMES = {
    "random": lambda: _random_frame(3),
    "twisted": lambda: dw.twisted_frame(1, N),
    "strong": lambda: dw.random_band_limited_frame(4, n=N, amplitude=0.3),
}


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_closed_form_metric_matches_lapack(name):
    """g_cov = adj(g) vol^2, vol = 1/|det p| and det e against np.linalg."""
    fr = FRAMES[name]()
    met = dw.decode_metric(dw.symbol_from_frame(fr))
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


def _gauged_frame(n=16):
    """The frame of a gauged random Dirac operator; 12^3 does not resolve the gauge."""
    op = dw.dirac_operator(_random_frame(7, n=n))
    return dw.FrameField(dw.gauge_transform(op, dw.random_gauge_field(8, n)).sigma.p)


# bench verdict frames all have g = I, where an index slip in the adjugate shows nowhere
DECODED = {
    "random": lambda curved: _random_frame(3),
    "gauged": lambda curved: _gauged_frame(),
    "twisted": lambda curved: dw.twisted_frame(2, N),
    "curved": lambda curved: curved,
    "generic": lambda curved: _generic_frame(N),
}


@pytest.mark.parametrize("name", sorted(DECODED))
def test_metric_and_coframe_match_lapack_inverses(name, curved_frame):
    """decode_metric and coframe against np.linalg: g_cov = inv(g_contra), vol =
    det(g_contra)^(-1/2) and c = inv(e)^T, to 1e-13 relative; each public array, the
    torsion bundle's components and star_T too, is grid-first and C-contiguous, and a
    new copy on each read, so writing into one changes no later result."""
    fr = DECODED[name](curved_frame)
    met = dw.decode_metric(dw.symbol_from_frame(fr))
    tor = dw.torsion(fr, met)
    for got in (tor.components, tor.star_T):
        assert got.shape == fr.e.shape and got.flags.c_contiguous
    read = met.g_contra
    assert not np.shares_memory(read, met.g_contra)
    read[...] = np.nan
    met.g_cov[...] = np.nan
    tor.components[...] = np.nan
    assert np.array_equal(dw.torsion(fr, met).components, tor.components)
    cof = coframe(fr, met)
    g_contra = np.einsum("...ja,...jb->...ab", fr.e, fr.e)
    want = {
        "g_contra": (met.g_contra, g_contra),
        "g_cov": (met.g_cov, np.linalg.inv(g_contra)),
        "vol": (met.vol, np.linalg.det(g_contra) ** -0.5),
        "coframe": (cof, np.swapaxes(np.linalg.inv(fr.e), -1, -2)),
    }
    for key, (got, ref) in want.items():
        assert got.shape == ref.shape and got.flags.c_contiguous, key
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), key


def _polarised_metric(sigma):
    """g^{ab} = -(det(s^a + s^b) - det s^a - det s^b)/2, as determinants."""
    def det2(m):
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    d = det2(sigma)
    pair = det2(sigma[..., :, None, :, :] + sigma[..., None, :, :, :])
    return (-0.5 * (pair - d[..., :, None] - d[..., None, :])).real


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_metric_bilinear_form_matches_polarised_determinants(name):
    sym = dw.symbol_from_frame(FRAMES[name]())
    sigma = sym.sigma
    got = dw.decode_metric(sym).g_contra
    assert np.array_equal(got, np.swapaxes(got, -1, -2))
    assert np.abs(got - _polarised_metric(sigma)).max() <= 1e-14


def _dual_by_raised_contraction(metric, forms):
    """(1/2) sqrt(det g) eps_{efb} g^{ec} g^{fd} w_{cd}, indices raised first."""
    g = metric.g_contra[..., None, :, :]
    raised = np.swapaxes(g, -1, -2) @ forms @ g
    dual = np.tensordot(raised, EPSILON, axes=((-2, -1), (0, 1)))
    return 0.5 * dual * metric.vol[..., None, None]


def _dual_of_pairs(metric, pairs):
    """geometry._dual_2forms on grid-first independent components pairs[..., k, h], grid-first."""
    gc = geometry._components_first(metric.g_cov)
    return geometry._grid_first(geometry._dual_2forms(geometry._components_first(pairs), gc,
                                                      metric.vol))


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_dual_2forms_matches_raised_contraction(name):
    fr = FRAMES[name]()
    met = dw.decode_metric(dw.symbol_from_frame(fr))
    w = np.random.default_rng(1).standard_normal(fr.e.shape[:3] + (3, 3, 3))
    w = w - np.swapaxes(w, -1, -2)
    want = _dual_by_raised_contraction(met, w)
    got = _dual_of_pairs(met, _pair_components(w))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    tor = dw.torsion(fr, met)
    want = _dual_by_raised_contraction(met, tor.T)
    assert np.abs(tor.star_T - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def _connection_route_torsion(fr, met):
    """T^a_{bc} = G^a_{bc} - G^a_{cb} from the teleparallel connection, as full tensors."""
    gam = _teleparallel_coefficients(fr, met)
    return gam - np.swapaxes(gam, -1, -2)


@pytest.mark.parametrize("name", ["random", "strong", "twisted"])
def test_torsion_tensor_built_on_access(name):
    """T is antisymmetric in (b, c) with a zero diagonal, its dual is star_T, and it
    equals the connection route computed here on full tensors."""
    fr = FRAMES[name]()
    met = dw.decode_metric(dw.symbol_from_frame(fr))
    tor = dw.torsion(fr, met)
    t = tor.T
    assert t.shape == fr.e.shape + (3,)
    assert np.array_equal(t, -np.swapaxes(t, -1, -2))
    assert not np.diagonal(t, axis1=-2, axis2=-1).any()
    assert np.array_equal(_pair_components(t), tor.components)
    dual = _dual_of_pairs(met, _pair_components(t))
    assert np.abs(dual - tor.star_T).max() <= 1e-14 * np.abs(tor.star_T).max()
    want = _connection_route_torsion(fr, met)
    assert np.abs(t - want).max() <= 1e-14 * np.abs(want).max()


def test_dual_2forms_is_its_docstring_contraction():
    """(1/2) sqrt(det g_cov) eps_{efb} g^{ec} g^{fd} w_{cd}, as one einsum, on a generic metric."""
    met = dw.decode_metric(dw.symbol_from_frame(_generic_frame(8)))
    raw = np.random.default_rng(13).standard_normal((8, 8, 8, 3, 3, 3))
    w = raw - np.swapaxes(raw, -1, -2)
    g = met.g_contra
    want = 0.5 * np.sqrt(np.linalg.det(met.g_cov))[..., None, None] * np.einsum(
        "...ec,...fd,efb,...kcd->...kb", g, g, EPSILON, w, optimize=True)
    gap = np.abs(_dual_of_pairs(met, _pair_components(w)) - want).max()
    print(f"dual of 2-forms off by {gap:.1e}, max |value| {np.abs(want).max():.1f}")
    assert gap < 1e-12


# --- the batched-@ torsion as the oracle -----------------------------------------

def _torsion_by_batched_matmul(fr, met):
    """(components, star_T, axial_dual, charge) as torsion computed them on grid-first
    (n, n, n, 3, 3) stacks through numpy's batched @, differentiating all nine coframe
    entries in each direction; its three routes agree within 1e-10."""
    cof = coframe(fr, met)
    e_t = np.ascontiguousarray(np.swapaxes(fr.e, -1, -2))  # e_t[..., a, j] = e_j^a
    conn, curl = np.zeros_like(cof), np.zeros_like(cof)
    for mu in range(3):
        before, after = (mu - 1) % 3, (mu + 1) % 3
        d = spectral_derivative(cof, mu + 1)  # d_mu c^j_b as [j, b]
        g = e_t @ d  # G^a_{mu b} as [a, b]
        conn[..., before] += g[..., after]
        conn[..., after] -= g[..., before]
        curl[..., before] += d[..., after]
        curl[..., after] -= d[..., before]
    ax2 = np.einsum("...kh,...kh->...", cof, curl) / (3.0 * met.vol)

    def dual(forms):
        return forms @ met.g_cov / met.vol[..., None, None]

    star = dual(conn)
    ax1 = np.einsum("...aa->...", star) / 3.0
    bound = 1e-10 * max(1.0, np.abs(conn).max())
    assert np.abs(e_t @ curl - conn).max() <= bound
    assert np.abs(e_t @ dual(curl) - star).max() <= bound
    assert np.abs(ax1 - ax2).max() <= bound
    return conn, star, ax1, fr.orientation()


def _bench_verdict_frames(n=16):
    """The frames of the five bench verdict families, from their operators' symbols."""
    rand = dw.dirac_operator(dw.random_band_limited_frame(1, n, amplitude=0.003))
    std = dw.standard_frame(n)
    ops = {
        "random": rand,
        "twisted": dw.dirac_operator(dw.twisted_frame(2, n)),
        "gauged": dw.gauge_transform(rand, dw.random_gauge_field(2, n, amplitude=0.04)),
        "scalar": dw.dirac_plus_scalar(std, 0.3),
        "traceless": dw.dirac_plus_traceless(std, 0.1),
    }
    return {name: dw.decode_frame(op.sigma) for name, op in ops.items()}


def test_torsion_matches_the_batched_matmul_oracle(curved_frame, pullback_frame):
    """components, star_T and axial_dual within 1e-14 of the field's largest entry (or of 1)
    of the grid-first batched-@ formulas, with the same charge, on the bench verdict
    families at 16^3, the curved frame and both pullback frames."""
    frames = {**_bench_verdict_frames(), "curved": curved_frame,
              **{name: pullback_frame(name, 16)[0] for name in ("shear", "stretch")}}
    worst = (0.0, "")
    for name, fr in frames.items():
        met = dw.decode_metric(dw.symbol_from_frame(fr))
        tor = dw.torsion(fr, met)
        *want, charge = _torsion_by_batched_matmul(fr, met)
        assert tor.charge == charge, name
        for key, ref in zip(("components", "star_T", "axial_dual"), want):
            got = getattr(tor, key)
            assert got.shape == ref.shape, (name, key)
            gap = np.abs(got - ref).max() / max(1.0, np.abs(ref).max())
            assert gap <= 1e-14, (name, key, gap)
            worst = max(worst, (gap, f"{name} {key}"))
    print(f"torsion off the batched-@ oracle by at most {worst[0]:.1e} ({worst[1]})")


# --- kernels read the held components-first layout ---------------------------------

def test_metric_and_torsion_kernels_copy_no_layout(monkeypatch):
    """A symbol holds p components first, so no kernel that reads it copies it: not
    decode_metric, torsion of the decoded frame, the Dirac a0 of the symbol it builds, or
    gauge_transform (which copies R and a0, and holds O components first).  A user's
    grid-first frame is gathered once, and christoffel_symbols copies nothing.  Each
    copy of a 32^3 stack takes about half a millisecond.  A layout call counts only when
    its result does not share memory with its input."""
    fr = _random_frame(2)
    sym = dw.symbol_from_frame(fr)
    met = dw.decode_metric(sym)
    copied = {}
    for name in ("_components_first", "_grid_first"):
        kernel = getattr(geometry, name)
        for module in (geometry, dw.operators):
            def counting(m, kernel=kernel, name=name):
                out = kernel(m)
                if not np.shares_memory(out, m):
                    copied[name].append(m)
                return out
            monkeypatch.setattr(module, name, counting)

    def copies(call, of=None):
        copied.update(_components_first=[], _grid_first=[])
        call()
        return tuple(sum(1 for m in copied[name] if of is None or np.shares_memory(m, of))
                     for name in ("_components_first", "_grid_first"))

    assert copies(lambda: dw.decode_metric(sym)) == (0, 0)
    assert copies(lambda: dw.torsion(dw.decode_frame(sym), dw.decode_metric(sym))) == (0, 0)
    assert copies(lambda: christoffel_symbols(met)) == (0, 0)
    assert copies(lambda: coframe(fr, met)) == (1, 1)  # the frame in, the coframe out
    resolved = _random_frame(2, n=16)  # its Dirac operator is not resolved at N = 12
    assert copies(lambda: dw.dirac_operator(resolved)) == (0, 0)
    op = dw.dirac_operator(resolved)
    gauge = dw.random_gauge_field(3, 16)
    assert copies(lambda: dw.gauge_transform(op, gauge), of=op.sigma.p) == (0, 0)
    assert copies(lambda: dw.gauge_transform(op, gauge))[0] == 2  # R and a0


# --- one ellipticity check per symbol ------------------------------------------

def _count_ellipticity_checks(monkeypatch) -> list:
    """The shape of each symbol p geometry._check_ellipticity checks from now on."""
    calls = []
    check = geometry._check_ellipticity

    def counting(gc, p):
        calls.append(np.shape(p))
        return check(gc, p)

    monkeypatch.setattr(geometry, "_check_ellipticity", counting)
    return calls


def test_decode_metric_does_not_recheck_ellipticity(monkeypatch):
    """A metric is built from a symbol, whose constructor checked ellipticity on the same g."""
    sym = dw.symbol_from_frame(_random_frame(2))
    calls = _count_ellipticity_checks(monkeypatch)
    dw.decode_metric(sym)
    dw.MetricField(sym)
    assert calls == []


def test_dirac_operator_checks_ellipticity_once(monkeypatch):
    """Its symbol checks ellipticity and its metric is built from that symbol with no
    second check; building the metric from the frame as well checked the same g twice."""
    fr = dw.random_band_limited_frame(2)
    calls = _count_ellipticity_checks(monkeypatch)
    dw.dirac_operator(fr)
    assert calls == [fr.e.shape]


def test_a_frame_singular_at_one_point_is_refused_there():
    """g = p^T p is never indefinite, but it is singular where p is: p's SVD reads a smallest
    singular value of 0 there."""
    e = dw.standard_frame(8).e.copy()
    e[3, 4, 5, 2, :] = 0.0
    with pytest.raises(EllipticityError, match=r"fails ellipticity at grid point \(3, 4, 5\)"):
        dw.symbol_from_frame(e)


def _rotation(axis, angle):
    """The rotation by angle about a unit axis, by Rodrigues' formula."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * k @ k


@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
@pytest.mark.parametrize("small", [1, 2], ids=["one-small", "two-small"])
@pytest.mark.parametrize("ratio, passes", [(0.99, True), (1.01, False)])
def test_frame_condition_gate_on_both_sides(ratio, passes, small, rotated):
    """p = Q diag(1, 1, s) R or Q diag(1, s, s) R with frame condition number 1/s = ratio * 1e8:
    g = p^T p has smallest eigenvalue s^2 ~ 1e-16 against a largest of 1, which LAPACK's
    eigvalsh resolves only to about 1e-16 absolute (on the rotated p it returned -1.09 s^2)."""
    s = 1.0 / (ratio * 1e8)
    p = np.diag([1.0] * (3 - small) + [s] * small)
    if rotated:
        p = _rotation(np.array([2.0, -1.0, 2.0]) / 3.0, 0.7) @ p @ _rotation(np.array([0.6, 0.0, 0.8]), 1.1)
    e = np.broadcast_to(p, (4, 4, 4, 3, 3))
    if passes:
        dw.symbol_from_frame(e)
    else:
        with pytest.raises(EllipticityError, match="frame condition number.*ratio 1.01"):
            dw.symbol_from_frame(e)


def _parent_ellipticity_outcome(g, p):
    """None or the EllipticityError text of the all-LAPACK check: eigvalsh's extreme
    eigenvalues of the grid-first g = p^T p, and lo from p's SVD where eigvalsh's ratio is
    below 1e-8."""
    w = np.linalg.eigvalsh(g)
    lo, hi = w[..., 0], w[..., 2]
    near = lo <= 1e-8 * hi
    if np.any(near):
        lo[near] = np.linalg.svd(p[near], compute_uv=False)[..., 2] ** 2
    try:
        if np.any(lo <= 0.0):
            idx = tuple(int(i) for i in np.unravel_index(np.argmin(lo), lo.shape))
            raise EllipticityError(f"symbol fails ellipticity at grid point {idx}")
        gate("frame condition number", np.sqrt(hi / lo), 1e8, EllipticityError)
    except EllipticityError as err:
        return str(err)
    return None


def _outcome(build):
    try:
        build()
    except EllipticityError as err:
        return str(err)
    return None


@pytest.mark.parametrize("family", [("1", "t", "t"), ("1", "1", "t"), ("1", "2", "t")],
                         ids=["1-t-t", "1-1-t", "1-2-t"])
def test_closed_form_ellipticity_decides_as_lapack(family):
    """p with singular values (1, t, t), (1, 1, t) or (1, 2, t) at the even points of a 4^3
    grid, between random rotations, and a random p with singular values in [0.5, 2] at the
    odd ones, for t = 1e-1 to 1e-9: the symbol accepts or refuses as the all-LAPACK check
    does, with its message.  The closed form's smallest eigenvalue was off by up to 7.6e-9
    of the largest at (1, t, t), where the two smallest coincide, and by 3.3e-15 otherwise;
    the points it sends to p's SVD, lo <= 1e-6 hi, cover that 130 times over."""
    rng = np.random.default_rng(11)

    def rotations(k):
        q, r = np.linalg.qr(rng.standard_normal((k, 3, 3)))
        return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]

    decisions, worst = [], 0.0
    for t in 10.0 ** -np.arange(1, 10):
        sv = np.where(np.arange(64)[:, None] % 2 == 0, [t if v == "t" else float(v) for v in family],
                      rng.uniform(0.5, 2.0, size=(64, 3)))
        p = ((rotations(64) * sv[:, None, :]) @ rotations(64)).reshape(4, 4, 4, 3, 3)
        g = np.moveaxis(geometry._gram(p), (0, 1), (-2, -1))
        want = _parent_ellipticity_outcome(g, p)
        assert _outcome(lambda: dw.symbol_from_frame(p)) == want
        lo = geometry._extreme_eigenvalues(geometry._gram(p))[0]
        true = np.linalg.svd(p, compute_uv=False)
        worst = max(worst, float((np.abs(lo - true[..., 2] ** 2) / true[..., 0] ** 2).max()))
        decisions.append(want)
    print(f"{family}: closed-form lo off by {worst:.1e} of hi; {decisions}")
    assert worst <= (1e-8 if family[1] == "t" else 1e-14)
    assert decisions[0] is None and decisions[-1] is not None


def _proper_rotations(rng, k):
    """k random rotations with determinant +1, so that a frame built from them keeps one orientation."""
    q = np.linalg.qr(rng.standard_normal((k, 3, 3)))[0]
    return q * np.sign(np.linalg.det(q))[:, None, None]


@pytest.mark.parametrize("t", [1e-5, 1e-6])
def test_nearly_degenerate_metric_has_a_finite_volume(t):
    """p with singular values (1, t, t) between random rotations on a 4^3 grid: the
    cofactor sum of det g = t^4 has no digits left, and vol was NaN at 28 of 64 points at
    t = 1e-5 when it was read off g.  vol = 1/|det p| is finite and close to 1/t^2, and the
    charge is +1."""
    rng = np.random.default_rng(0)
    p = (_proper_rotations(rng, 64) * np.array([1.0, t, t])) @ _proper_rotations(rng, 64)
    sym = dw.symbol_from_frame(p.reshape(4, 4, 4, 3, 3))
    met = dw.decode_metric(sym)
    assert np.all(np.isfinite(met.vol)) and np.all(met.vol > 0.0)
    assert np.abs(met.vol * t**2 - 1.0).max() <= 1e-3
    assert dw.topological_charge(sym) == 1


@pytest.mark.parametrize("t", [1e-6, 1e-7])
@pytest.mark.parametrize("family", [(1.0, 1.0, "t"), (1.0, "t", "t")], ids=["1-1-t", "1-t-t"])
def test_nearly_degenerate_frames_keep_charge_and_volume(family, t):
    """p = Q diag(s) R with proper random rotations Q and R on a 4^3 grid, at frame condition
    1/t, which the ellipticity gate (1e8) accepts.  With det g from LAPACK's LU of g, good to
    eps cond(p)^2, vol at (1, 1, t) was off by 6.1e-5 (t = 1e-6) and 6.1e-3 (t = 1e-7) of an
    exact rational reference, and the charge raised ConsistencyError on both families.
    vol = 1/|det p| was off by 3.7e-11 and 3.7e-10, and vol det p is +-1 to rounding."""
    rng = np.random.default_rng(7)
    s = np.array([t if v == "t" else v for v in family])
    p = (_proper_rotations(rng, 64) * s) @ _proper_rotations(rng, 64)
    sym = dw.symbol_from_frame(p.reshape(4, 4, 4, 3, 3))
    assert dw.topological_charge(sym) == 1
    if family[1] == 1.0:
        err = float(np.abs(dw.decode_metric(sym).vol * t - 1.0).max())
        print(f"(1, 1, {t:g}): vol t off 1 by {err:.1e}")
        assert err <= 1e-8


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


# --- curved metrics: the Levi-Civita connection --------------------------------

def _generic_frame(n, amplitude=0.05, seed=5):
    """Identity plus a band-limited perturbation, not orthonormalised: g is a generic
    non-constant metric."""
    rng = np.random.default_rng(seed)
    x = PeriodicChart(n).mesh()
    e = np.broadcast_to(np.eye(3), (n, n, n, 3, 3)).copy()
    for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, -1)]:
        phase = sum(mi * xi for mi, xi in zip(m, x))[..., None, None]
        e += amplitude * (np.cos(phase) * rng.standard_normal((3, 3))
                          + np.sin(phase) * rng.standard_normal((3, 3)))
    return dw.FrameField(e)


def test_christoffel_matches_the_warped_closed_form(warped_frame):
    """For g_11 = 1/f^2(x3): G^3_11 = f'/f^3, G^1_13 = G^1_31 = -f'/f, all others 0."""
    n = 32
    x3 = PeriodicChart(n).mesh()[2]
    f, fp = 1.0 + 0.1 * np.cos(x3), -0.1 * np.sin(x3)
    want = np.zeros((n, n, n, 3, 3, 3))
    want[..., 2, 0, 0] = fp / f**3
    want[..., 0, 0, 2] = want[..., 0, 2, 0] = -fp / f
    got = christoffel_symbols(dw.decode_metric(dw.symbol_from_frame(warped_frame(n))))
    gap = np.abs(got - want).max()
    print(f"warped Christoffel gap {gap:.2e}")
    assert gap <= 1e-13


def test_christoffel_matches_the_three_einsum_formula():
    """G^b_ac = g^bd (d_a g_cd + d_c g_ad - d_d g_ac) / 2, term by term."""
    met = dw.decode_metric(dw.symbol_from_frame(_generic_frame(12)))
    dg = _derivative_stack(met.g_cov)  # [..., mu, alpha, beta]
    g = met.g_contra
    want = 0.5 * (
        np.einsum("...bd,...acd->...bac", g, dg)
        + np.einsum("...bd,...cad->...bac", g, dg)
        - np.einsum("...bd,...dac->...bac", g, dg)
    )
    got = christoffel_symbols(met)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    assert np.abs(got - np.swapaxes(got, -1, -2)).max() <= 1e-15


def test_christoffel_peak_memory(peak_mb):
    """Summing d g into one array and freeing it before the lowering: the
    full-size sums and the final 0.5 * copy peaked at 3.5 MB at 16^3."""
    met = dw.decode_metric(dw.symbol_from_frame(_generic_frame(16)))
    assert peak_mb(lambda: christoffel_symbols(met)) <= 2.6


def test_christoffel_traces_are_the_log_volume_derivative(curved_frame):
    """G^b_ab = G^b_ba = d_a log sqrt(det g_cov), the identity dirac_operator folds in.

    Both sides are spectral derivatives of different fields, so they agree to
    the grid's truncation error (5.1e-13 at 24^3), not to rounding.
    """
    met = dw.decode_metric(dw.symbol_from_frame(curved_frame))
    gamma = christoffel_symbols(met)
    want = _derivative_stack(np.log(met.vol))
    assert np.abs(want[..., 2]).max() > 0.04
    for trace in ("...bab->...a", "...bba->...a"):
        assert np.abs(np.einsum(trace, gamma) - want).max() <= 1e-12


# --- the symbol held as real Pauli components ------------------------------------

def test_symbol_from_frame_holds_one_real_array(monkeypatch):
    """p is the only grid array; the Hermitian gate is for complex input only."""
    calls = []
    real_gate = geometry.gate

    def recording_gate(what, *args):
        calls.append(what)
        return real_gate(what, *args)

    monkeypatch.setattr(geometry, "gate", recording_gate)
    frame = _random_frame(3, n=8)
    sym = dw.symbol_from_frame(frame)
    arrays = [v for v in vars(sym).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is sym.p
    assert sym.p.dtype == np.float64 and sym.p.shape == (8, 8, 8, 3, 3)
    assert np.array_equal(sym.p, frame.e) and not np.shares_memory(sym.p, frame.e)
    assert np.array_equal(sym.sigma, geometry.pauli_matrices(np.swapaxes(frame.e, -1, -2)))
    assert not any("Hermitian" in what for what in calls)
    dw.PrincipalSymbolField(sym.sigma)  # complex input does run it
    assert any("Hermitian" in what for what in calls)


def test_decoded_frame_is_the_read_only_component_array():
    sym = dw.symbol_from_frame(dw.twisted_frame(1, 8))
    e = dw.decode_frame(sym).e
    assert not e.flags.writeable
    assert np.array_equal(e, sym.p) and np.shares_memory(e, sym.p)
    with pytest.raises(ValueError):
        e[0, 0, 0, 0, 0] = 2.0


def test_nearly_hermitian_complex_input_rebuilds_sigma():
    """Input that is Hermitian and trace-free only to 1e-14 passes the gates, and
    the stack rebuilt from p stays within 1e-13 of it."""
    sigma = dw.symbol_from_frame(_random_frame(3, n=8)).sigma
    rng = np.random.default_rng(11)
    noisy = sigma + 1e-14 * (rng.uniform(-1, 1, sigma.shape) + 1j * rng.uniform(-1, 1, sigma.shape))
    assert 0.0 < np.abs(noisy - np.conj(np.swapaxes(noisy, -1, -2))).max() <= 1e-13
    assert np.abs(dw.PrincipalSymbolField(noisy).sigma - noisy).max() <= 1e-13


def test_symbol_rebuilt_from_its_sigma_shares_p():
    """PrincipalSymbolField(sym.sigma) holds sym's read-only p, not a second copy, so
    keeping rebuilt symbols alive costs no grid memory; a p one bit apart is its own."""
    frame = _random_frame(3, n=16)
    sym = dw.symbol_from_frame(frame)
    tracemalloc.start()
    try:
        kept = [dw.PrincipalSymbolField(sym.sigma) for _ in range(5)]
        retained = tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()
    assert all(again.p is sym.p for again in kept)
    assert retained < 0.1, retained  # five copies of p would hold 1.47 MB
    e = frame.e.copy()
    e[3, 4, 5, 1, 2] = np.nextafter(e[3, 4, 5, 1, 2], np.inf)
    other = dw.symbol_from_frame(dw.FrameField(e))
    assert other.p is not sym.p and not np.shares_memory(other.p, sym.p)
    held = weakref.ref(sym.p)
    del sym, kept
    gc.collect()
    assert held() is None  # the table of held arrays keeps none alive


# --- a symbol holds p alone ----------------------------------------------------

_ANALYSES = {
    "sigma": lambda op: op.sigma.sigma,
    "decode_frame": lambda op: dw.decode_frame(op.sigma),
    "decode_metric": lambda op: dw.decode_metric(op.sigma),
    "topological_charge": lambda op: dw.topological_charge(op.sigma),
    "torsion": lambda op: dw.torsion(dw.decode_frame(op.sigma), dw.decode_metric(op.sigma)),
    "subprincipal_symbol": dw.subprincipal_symbol,
    "check_dirac": dw.check_dirac,
    "b_density": dw.b_density,
    "b1_density_fiber": lambda op: dw.b1_density_fiber(op, [(0, 1, 2)]),
    "b2_density_fiber_torsion": lambda op: dw.b2_density_fiber_torsion(op.sigma, [(0, 1, 2)]),
    "b2_density_fiber_curvature": lambda op: dw.b2_density_fiber_curvature(op, [(0, 1, 2)]),
    "u1_curvature": lambda op: dw.u1_curvature(op.sigma, [(0, 1, 2), (1, 1, 1)], np.eye(3)[:2]),
    "gauge_transform": lambda op: dw.gauge_transform(op, dw.random_gauge_field(1, 16)),
    "galerkin_spectrum": lambda op: dw.galerkin_spectrum(op, 1),
}


@pytest.mark.parametrize("name", sorted(_ANALYSES))
def test_symbol_keeps_only_p_after_analysis(name):
    """An analysis keeps nothing alive on the symbol it read: besides p, a symbol holds only
    weak references (decode_metric's link to its metric), dead once the results are dropped,
    so every live operator keeps p alone."""
    op = dw.dirac_operator(dw.random_band_limited_frame(3, n=16))
    _ANALYSES[name](op)
    gc.collect()
    links = {key: link for key, link in vars(op.sigma).items() if key != "p"}
    assert "p" in vars(op.sigma)
    assert all(type(link) is weakref.ref and link() is None for link in links.values()), links
