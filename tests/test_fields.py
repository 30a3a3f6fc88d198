"""Grid calculus: spectral derivatives, interpolation, quadrature."""

import re

import numpy as np
import pytest

import diracweyl as dw
from diracweyl.errors import EllipticityError, InputError
from diracweyl.geometry import symbol_from_frame
from diracweyl.scenarios import random_band_limited_frame
from diracweyl.fields import (
    _FOURIER_TOL,
    PeriodicChart,
    TrigInterpolant,
    _derivative,
    _fourier_content,
    _grid_line_jets,
    _transposed,
    chart_of,
    fiber_ball_quadrature,
    grid_integral,
    metric_ball_map,
    sphere_design_14,
    spectral_derivative,
)

TWO_PI = 2.0 * np.pi


def _derivative_stack(values):
    """The three coordinate derivatives of a grid field, stacked on a new axis at position 3."""
    return np.stack([spectral_derivative(values, a) for a in (1, 2, 3)], axis=3)


def _mesh(n):
    return PeriodicChart(n).mesh()


class TestChart:
    def test_axis_coordinates_span_torus(self):
        x = PeriodicChart(8).axis_coordinates()
        assert x[0] == 0.0
        assert np.allclose(np.diff(x), TWO_PI / 8)
        assert x[-1] < TWO_PI

    def test_odd_grid_rejected(self):
        with pytest.raises(InputError, match="even"):
            PeriodicChart(9)

    def test_tiny_grid_rejected(self):
        with pytest.raises(InputError):
            PeriodicChart(2)

    def test_grid_ceiling_is_128(self):
        assert PeriodicChart(128).n == 128
        with pytest.raises(InputError, match="grid size 130 is over the ceiling of 128"):
            PeriodicChart(130)

    def test_chart_of_requires_cubic_leading_axes(self):
        with pytest.raises(InputError, match="three equal leading grid axes"):
            chart_of(np.zeros((4, 4, 6)))


def test_spectral_derivative_exact_on_trig_polynomial():
    """d/dx of a band-limited field is exact, not merely high order."""
    x1, x2, x3 = _mesh(16)
    f = np.sin(2 * x1 + x3) + 0.5 * np.cos(3 * x2)
    d1 = spectral_derivative(f, 1)
    d2 = spectral_derivative(f, 2)
    d3 = spectral_derivative(f, 3)
    assert np.abs(d1 - 2 * np.cos(2 * x1 + x3)).max() < 1e-12
    assert np.abs(d2 + 1.5 * np.sin(3 * x2)).max() < 1e-12
    assert np.abs(d3 - np.cos(2 * x1 + x3)).max() < 1e-12


def test_spectral_derivative_keeps_real_fields_real():
    rng = np.random.default_rng(7)
    f = rng.standard_normal((12, 12, 12))
    assert np.isrealobj(spectral_derivative(f, 1))
    with pytest.raises(InputError, match="axis must be 1, 2 or 3"):
        spectral_derivative(f, 0)


def test_spectral_derivative_of_a_component_field_is_entrywise():
    x1, x2, _ = _mesh(12)
    f = np.stack([np.sin(x1), np.cos(x2)], axis=-1)
    st = _derivative_stack(f)
    assert st.shape == (12, 12, 12, 3, 2)
    assert np.abs(st[..., 0, 0] - np.cos(x1)).max() < 1e-12
    assert np.abs(st[..., 1, 1] + np.sin(x2)).max() < 1e-12
    assert np.abs(st[..., 2, :]).max() < 1e-13


def test_grid_integral_constant_and_sin_squared():
    n = 16
    x1, _, _ = _mesh(n)
    vol = TWO_PI**3
    assert abs(grid_integral(np.ones((n, n, n))) - vol) < 1e-10
    assert abs(grid_integral(np.sin(x1) ** 2) - vol / 2) < 1e-10


class TestTrigInterpolant:
    def test_reproduces_samples(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((8, 8, 8))
        interp = TrigInterpolant(f)
        pts = TWO_PI * np.stack(np.meshgrid(*(np.arange(8) / 8,) * 3, indexing="ij"), -1)
        vals = interp(pts.reshape(-1, 3)).reshape(8, 8, 8)
        assert np.abs(vals - f).max() < 1e-11

    def test_band_limited_off_grid(self):
        """Off-grid values of a trig polynomial are reproduced exactly."""
        x1, x2, x3 = _mesh(16)
        f = np.cos(x1 + 2 * x3) - 0.25 * np.sin(x2)
        interp = TrigInterpolant(f)
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, TWO_PI, size=(40, 3))
        expect = np.cos(pts[:, 0] + 2 * pts[:, 2]) - 0.25 * np.sin(pts[:, 1])
        assert np.abs(interp(pts) - expect).max() < 1e-11

    def test_real_input_gives_real_output(self):
        rng = np.random.default_rng(5)
        interp = TrigInterpolant(rng.standard_normal((8, 8, 8)))
        out = interp(rng.uniform(0, TWO_PI, size=(10, 3)))
        assert np.isrealobj(out)

    @pytest.mark.parametrize("shape", [(6,), (2, 4), ()])
    def test_refuses_points_without_a_last_axis_of_3(self, shape):
        interp = TrigInterpolant(np.zeros((4, 4, 4)))
        words = re.escape(f"last axis of length 3, got shape {shape}")
        for evaluate in (interp, interp.gradient):
            with pytest.raises(InputError, match=words):
                evaluate(np.zeros(shape))

    @pytest.mark.parametrize("values", [np.zeros((4, 4, 4)), np.full((4, 4, 4, 2), 1e-14)])
    def test_a_field_with_no_modes_left_is_zero(self, values):
        """Every coefficient at or below _FOURIER_TOL is pruned; the block size divided by
        the zero mode count and raised ZeroDivisionError."""
        interp = TrigInterpolant(values)
        assert len(interp.coefs) == 0
        tail = values.shape[3:]
        for points, lead in ((np.full(3, 0.5), ()), (np.full((2, 3, 3), 0.5), (2, 3))):
            assert np.array_equal(interp(points), np.zeros(lead + tail))
            assert np.array_equal(interp.gradient(points), np.zeros(lead + (3,) + tail))

    def test_matrix_valued_fields(self):
        x1, _, _ = _mesh(8)
        f = np.zeros((8, 8, 8, 2, 2))
        f[..., 0, 1] = np.sin(x1)
        interp = TrigInterpolant(f)
        v = interp(np.array([0.3, 0.0, 0.0]))
        assert v.shape == (2, 2)
        assert abs(v[0, 1] - np.sin(0.3)) < 1e-11


def test_fourier_content_keeps_a_mode_only_above_the_tolerance():
    """Planted coefficients 0.5, 1 and 2 times _FOURIER_TOL, one per component on the 4^3
    grid, whose transform is exact: only the 2x one is kept, at its signed mode."""
    idx = np.stack(np.meshgrid(*(np.arange(4),) * 3, indexing="ij"), axis=-1)
    planted = {(1, 0, 0): 0.5, (-2, 1, 0): 1.0, (0, -1, 1): 2.0}
    values = np.zeros((4, 4, 4, 3), dtype=complex)
    for k, (mode, scale) in enumerate(planted.items()):
        values[..., k] = scale * _FOURIER_TOL * np.array([1, 1j, -1, -1j])[(idx @ mode) % 4]
    modes, coefs = _fourier_content(values)
    assert np.issubdtype(modes.dtype, np.integer)
    assert modes.tolist() == [[0, -1, 1]]
    assert coefs.tolist() == [[0.0, 0.0, 2.0 * _FOURIER_TOL]]
    modes, coefs = _fourier_content(np.zeros((4, 4, 4, 2, 2)))
    assert modes.shape == (0, 3) and coefs.shape == (0, 2, 2)


def _interpolant_before_fourier_content(values):
    """(modes, coefs) as TrigInterpolant built them with its own transform and prune."""
    n = values.shape[0]
    coefs = np.fft.fftn(values, axes=(0, 1, 2)) / n**3
    modes = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64).astype(float)
    mvec = np.stack(np.meshgrid(modes, modes, modes, indexing="ij"), axis=-1).reshape(-1, 3)
    cflat = coefs.reshape(n**3, *values.shape[3:])
    keep = np.abs(cflat).reshape(n**3, -1).max(axis=1) > _FOURIER_TOL
    mvec, cflat = mvec[keep], cflat[keep]
    for ax in range(3):
        nyq = mvec[:, ax] == -(n // 2)
        cflat[nyq] *= 0.5
        partners = mvec[nyq]
        partners[:, ax] = n // 2
        mvec, cflat = np.concatenate([mvec, partners]), np.concatenate([cflat, cflat[nyq]])
    return _transposed(mvec), cflat


@pytest.mark.parametrize("name", ["symbol", "real 8^3", "complex"])
def test_interpolant_modes_are_the_ones_it_built_itself(name):
    """Reading _fourier_content leaves the interpolant's modes and coefficients bitwise as
    they were when it ran its own transform and prune."""
    rng = np.random.default_rng(7)
    values = {"symbol": lambda: symbol_from_frame(random_band_limited_frame(1, 16)).p,
              "real 8^3": lambda: rng.standard_normal((8, 8, 8)),
              "complex": lambda: rng.standard_normal((8, 8, 8, 2)) + 1j * rng.standard_normal((8, 8, 8, 2)),
              }[name]()
    interp = TrigInterpolant(values)
    modes, coefs = _interpolant_before_fourier_content(values)
    assert interp.modes.dtype == modes.dtype and interp.coefs.dtype == coefs.dtype
    assert interp.modes.tobytes() == modes.tobytes() and interp.coefs.tobytes() == coefs.tobytes()


def _gradient_cases():
    rng = np.random.default_rng(17)
    real = rng.standard_normal((8, 8, 8))  # populates every Nyquist bin
    symbol = symbol_from_frame(random_band_limited_frame(4, n=8)).sigma
    return {"real-with-nyquist": real, "complex-symbol": symbol}


@pytest.mark.parametrize("name", ["real-with-nyquist", "complex-symbol"])
def test_interpolant_gradient_is_the_spectral_derivative_at_grid_points(name):
    """The analytic gradient of the interpolant reproduces spectral_derivative on the grid."""
    values = _gradient_cases()[name]
    interp = TrigInterpolant(values)
    stack = _derivative_stack(values)
    rng = np.random.default_rng(23)
    for p in rng.integers(0, 8, size=(12, 3)):
        grad = interp.gradient(TWO_PI * p / 8)
        assert grad.shape == (3,) + values.shape[3:]
        assert np.isrealobj(grad) == np.isrealobj(values)
        assert np.abs(grad - stack[tuple(p)]).max() <= 1e-12


@pytest.mark.parametrize("name", ["real-with-nyquist", "complex-symbol"])
def test_interpolant_on_a_stack_of_points_equals_single_calls(name):
    """Values and gradients at a (2, 4, 3) stack of points, against one call per point.

    The stack sums the modes in one BLAS product, the single calls one
    point at a time, so they agree to rounding: measured 3.1e-15 of the
    largest value and 5.3e-15 of the largest gradient entry."""
    values = _gradient_cases()[name]
    interp = TrigInterpolant(values)
    pts = np.random.default_rng(29).uniform(0.0, TWO_PI, size=(2, 4, 3))
    vals, grads = interp(pts), interp.gradient(pts)
    assert vals.shape == (2, 4) + values.shape[3:]
    assert grads.shape == (2, 4, 3) + values.shape[3:]
    for got, one in ((vals, interp.__call__), (grads, interp.gradient)):
        singles = np.array([one(p) for p in pts.reshape(-1, 3)]).reshape(got.shape)
        assert np.abs(got - singles).max() <= 1e-14 * np.abs(singles).max()


def test_interpolant_misses_grid_samples_by_its_pruned_modes():
    """The 16^3 symbol of random_band_limited_frame(2, 16) keeps 2197 of 4096 modes.  At 200
    grid points the values were off the samples by 2.0e-12 and the gradient off
    spectral_derivative by 1.45e-11, where the derivatives reach 3.6e-3; the line helper,
    which prunes nothing, was off by 5.1e-15."""
    p = symbol_from_frame(random_band_limited_frame(2, 16)).p
    interp = TrigInterpolant(p)
    pts = np.random.default_rng(0).integers(0, 16, size=(200, 3))
    idx = tuple(pts.T)
    want = np.stack([spectral_derivative(p, a + 1)[idx] for a in range(3)], axis=1)
    value_gap = np.abs(interp(TWO_PI * pts / 16) - p[idx]).max()
    gradient_gap = np.abs(interp.gradient(TWO_PI * pts / 16) - want).max()
    line_gap = np.abs(_grid_line_jets(p, pts)[1] - want).max()
    print(f"off the samples by {value_gap:.2e}, off the derivatives by {gradient_gap:.2e} "
          f"(line helper {line_gap:.1e}; largest derivative {np.abs(want).max():.1e})")
    assert len(interp.coefs) == 2197
    assert 1e-13 < value_gap <= 3e-12
    assert 1e-12 < gradient_gap <= 2e-11
    assert line_gap <= 1e-14


def test_interpolant_memory_does_not_grow_with_the_point_count(peak_mb):
    """400 gradients of a 16^3 frame symbol (2197 modes) in blocks of at most 8 MB of
    mode weights: traced peak 11.5 MB, where one (400, 3, 2197) block takes 42 MB."""
    interp = TrigInterpolant(symbol_from_frame(random_band_limited_frame(4, n=16)).p)
    pts = np.random.default_rng(31).uniform(0.0, TWO_PI, size=(400, 3))
    assert peak_mb(lambda: interp.gradient(pts)) < 16.0
    grads = interp.gradient(pts)
    for row in (0, 199, 399):  # in the first, a middle and the last block
        assert np.abs(grads[row] - interp.gradient(pts[row])).max() <= 1e-14


def _line_jet_fields(curved_frame):
    """Grid fields for the line-jet checks: symbol components p and one complex a0."""
    gauged = dw.gauge_transform(dw.dirac_operator(dw.twisted_frame(1, 16)),
                                dw.random_gauge_field(1, 16))
    rng = np.random.default_rng(41)
    return {
        "random p": symbol_from_frame(random_band_limited_frame(2, 16)).p,
        "twisted p": symbol_from_frame(dw.twisted_frame(3, 16)).p,
        "gauged p": gauged.sigma.p,
        "gauged a0": gauged.a0,
        "curved p": symbol_from_frame(curved_frame).p,
        "n=4 real": rng.standard_normal((4, 4, 4, 3)),  # populates every Nyquist bin
        "n=4 complex": rng.standard_normal((4, 4, 4, 2)) + 1j * rng.standard_normal((4, 4, 4, 2)),
    }


def test_grid_line_jets_are_the_samples_and_spectral_derivatives(curved_frame):
    """The line helper against whole-grid spectral_derivative, at corner and random
    indices: within 1e-12 of the field's or its derivative's largest entry on every
    field (the random frame's derivatives reach only 4e-3 of its entries), and k = 0
    points give empty stacks."""
    for name, values in _line_jet_fields(curved_frame).items():
        n = values.shape[0]
        pts = np.concatenate([[(0, 0, 0), (n - 1, n - 1, n - 1), (0, n - 1, 0), (n - 1, 0, n // 2)],
                              np.random.default_rng(43).integers(0, n, size=(4, 3))])
        idx = tuple(pts.T)
        want = np.stack([spectral_derivative(values, a + 1)[idx] for a in range(3)], axis=1)
        vals, grads = _grid_line_jets(values, pts)
        assert grads.shape == want.shape and grads.dtype == want.dtype
        gap = np.abs(grads - want).max() / max(np.abs(values).max(), np.abs(want).max())
        print(f"{name}: gradient gap {gap:.1e} of the largest entry")
        assert np.array_equal(vals, values[idx])
        assert gap <= 1e-12
        vals, grads = _grid_line_jets(values, np.zeros((0, 3), dtype=np.int64))
        assert vals.shape == (0,) + values.shape[3:] and grads.shape == (0, 3) + values.shape[3:]


# --- quadrature ------------------------------------------------------------

def test_sphere_design_14_low_degree_moments():
    pts, w = sphere_design_14()
    assert abs(w.sum() - 4 * np.pi) < 1e-12
    assert abs((w * pts[:, 1] ** 2).sum() - 4 * np.pi / 3) < 1e-12
    assert abs((w * pts[:, 0] ** 2 * pts[:, 2] ** 2).sum() - 4 * np.pi / 15) < 1e-12


def test_metric_ball_map_is_sqrt_of_covariant_metric():
    g_contra = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    amap, jac = metric_ball_map(g_contra)
    g_cov = np.linalg.inv(g_contra)
    assert np.abs(amap @ amap - g_cov).max() < 1e-12
    assert abs(jac - np.sqrt(np.linalg.det(g_cov))) < 1e-12


def test_metric_ball_map_rejects_indefinite():
    with pytest.raises(EllipticityError, match="positive definite"):
        metric_ball_map(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(EllipticityError, match=r"eigenvalues \[-2\.? +1\.? +3\.?\]"):
        metric_ball_map(np.array([np.eye(3), np.diag([3.0, -2.0, 1.0]), np.eye(3)]))


class TestFiberBallQuadrature:
    """Covector-ball integrals against the (2 pi)^-3 reference measure."""

    def test_euclidean_volume(self):
        val = fiber_ball_quadrature(np.eye(3), lambda xi: np.ones(len(xi)))
        assert abs(val - 1.0 / (6 * np.pi**2)) < 1e-13

    def test_anisotropic_volume(self):
        # g_contra = diag(4,1,1): ball volume scales by sqrt(det g_cov) = 1/2
        val = fiber_ball_quadrature(np.diag([4.0, 1.0, 1.0]), lambda xi: np.ones(len(xi)))
        assert abs(val - 0.5 / (6 * np.pi**2)) < 1e-13

    def test_degree_zero_integrand_exact_under_anisotropic_metric(self):
        """Affine, quadratic and quartic profiles on the cosphere g(xi, xi) = 1,
        made degree 0 by powers of g(xi, xi): with xi = A u and M = A Q A,
        the sphere moments of u.Mu and (u.Mu)^2 are 4pi/3 tr M and
        4pi/15 (2 tr M^2 + (tr M)^2), and odd ones vanish."""
        g = np.array([[2.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 1.5]])
        q = np.array([[1.0, 0.5, 0.0], [0.5, -2.0, 0.7], [0.0, 0.7, 0.3]])
        c = np.array([0.4, -1.0, 2.0])

        def integrand(xi):
            norm2 = np.einsum("ka,ab,kb->k", xi, g, xi)
            quad = np.einsum("ka,ab,kb->k", xi, q, xi) / norm2
            return 0.5 + xi @ c / np.sqrt(norm2) + quad + quad**2

        amap, jac = metric_ball_map(g)
        m = amap @ q @ amap
        tr, tr2 = np.trace(m), np.trace(m @ m)
        sphere = 4 * np.pi * (0.5 + tr / 3 + (2 * tr2 + tr**2) / 15)
        want = jac * sphere / (3 * TWO_PI**3)
        val = fiber_ball_quadrature(g, integrand)
        print(f"degree-0 ball integral off by {abs(val - want):.1e}")
        assert abs(val - want) < 1e-13 * abs(want)

    def test_stack_of_metrics_equals_single_calls(self):
        """k random SPD metrics, each with its own quadratic ratio q(xi, xi)/g(xi, xi):
        one stacked call against k single ones (measured 8.7e-19 apart)."""
        rng = np.random.default_rng(3)
        b = rng.standard_normal((6, 3, 3))
        g = b @ _transposed(b) + 0.5 * np.eye(3)
        q = rng.standard_normal((6, 3, 3))
        q = q + _transposed(q)

        def ratio(g, q):
            form = "...ka,...ab,...kb->...k"
            return lambda xi: np.einsum(form, xi, q, xi) / np.einsum(form, xi, g, xi)

        stacked = fiber_ball_quadrature(g, ratio(g, q))
        singles = [fiber_ball_quadrature(g[i], ratio(g[i], q[i])) for i in range(6)]
        assert all(isinstance(v, float) for v in singles)
        assert stacked.shape == (6,)
        assert np.abs(stacked - singles).max() <= 1e-15 * np.abs(singles).max()

    def test_refuses_an_integrand_not_homogeneous_of_degree_zero(self):
        with pytest.raises(InputError, match="homogeneous of degree 0"):
            fiber_ball_quadrature(np.eye(3), lambda xi: (xi**2).sum(axis=1))


def _complex_fft_derivative(values, axis):
    """The complex-FFT derivative, Nyquist bin zeroed, taken back to real."""
    n = values.shape[0]
    mult = 1j * np.fft.fftfreq(n, d=1.0 / n)
    mult[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis - 1] = n
    return np.fft.ifft(np.fft.fft(values, axis=axis - 1) * mult.reshape(shape), axis=axis - 1).real


@pytest.mark.parametrize("shape", [(12, 12, 12), (8, 8, 8, 3, 3)])
def test_real_fft_derivative_matches_complex_path(shape):
    """Real fields take the half-spectrum route; it agrees with the full
    complex transform, including on random data with Nyquist content."""
    f = np.random.default_rng(3).standard_normal(shape)
    for axis in (1, 2, 3):
        got = spectral_derivative(f, axis)
        want = _complex_fft_derivative(f, axis)
        assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def _longdouble_derivative(values, axis):
    """The circulant cot-weight derivative along array axis `axis`, weights and sums in long double."""
    n = values.shape[axis]
    d = np.arange(1, n // 2)
    half = np.longdouble(0.5) * (-1.0) ** d / np.tan(np.longdouble(np.pi) * d / n)
    w = np.concatenate([[np.longdouble(0.0)], half, [np.longdouble(0.0)], -half[::-1]])
    line = np.arange(n)
    lines = np.moveaxis(values.astype(np.longdouble), axis, 0)
    return np.moveaxis(np.tensordot(w[(line[:, None] - line) % n], lines, axes=(1, 0)), 0, axis)


def _real_fft_derivative(values, axis):
    """The real-FFT derivative along coordinate axis `axis`, Nyquist bin zeroed."""
    n = values.shape[0]
    mult = 1j * np.arange(n // 2 + 1)
    mult[-1] = 0.0
    shape = [1] * values.ndim
    shape[axis - 1] = n // 2 + 1
    return np.fft.irfft(np.fft.rfft(values, axis=axis - 1) * mult.reshape(shape), n=n, axis=axis - 1)


@pytest.mark.parametrize("n", [16, 24, 32, 64])
def test_derivative_is_no_less_accurate_than_the_real_fft(n):
    """Against the long-double evaluation of the same matrix: the bench's random frame
    (amplitude 0.003) at 16^3 to 32^3, one entry of a stronger frame at 64^3.  The
    matrix product, each line centred on its first sample, missed it by 2.0e-18 to
    5.0e-17; the real-FFT derivative by 6.0e-16 to 4.9e-15."""
    e = dw.random_band_limited_frame(1, n, amplitude=0.003 if n < 64 else 0.3).e
    values = e if n < 64 else e[..., 0, 0].copy()
    got = want = 0.0
    for axis in (1, 2, 3):
        exact = _longdouble_derivative(values, axis - 1)
        got = max(got, float(np.abs(spectral_derivative(values, axis) - exact).max()))
        want = max(want, float(np.abs(_real_fft_derivative(values, axis) - exact).max()))
    print(f"{n}^3: matrix product {got:.1e}, real FFT {want:.1e} off the long-double product")
    assert got <= want


def test_derivative_is_the_same_grid_first_and_components_first():
    """One field held (n, n, n, 3, 3) and (3, 3, n, n, n): the same derivative along each
    grid axis, within 1e-15 of the field's size."""
    e = dw.random_band_limited_frame(2, 16, amplitude=0.3).e
    first = np.ascontiguousarray(np.moveaxis(e, (3, 4), (0, 1)))
    for axis in (1, 2, 3):
        gap = np.abs(np.moveaxis(_derivative(first, axis + 1), (0, 1), (3, 4))
                     - spectral_derivative(e, axis)).max()
        assert gap <= 1e-15 * np.abs(e).max()


def test_derivative_of_an_integer_field_is_float():
    """An integer field gives float64, and the derivative of its float copy."""
    x1 = np.arange(8)[:, None, None] + np.zeros((8, 8, 8), dtype=np.int64)
    got = spectral_derivative(x1, 1)
    assert got.dtype == np.float64
    assert np.array_equal(got, spectral_derivative(x1.astype(float), 1))


@pytest.mark.parametrize("axis", [1.0, True, np.True_, "1", None])
def test_spectral_derivative_refuses_an_axis_that_is_not_an_integer(axis):
    """A float or a bool compared equal to 1 and went on to numpy's bare TypeError."""
    with pytest.raises(InputError, match=re.escape(f"axis must be 1, 2 or 3, got {axis!r}")):
        spectral_derivative(np.zeros((4, 4, 4)), axis)


def test_spectral_derivative_refuses_a_field_that_is_not_numeric():
    with pytest.raises(InputError, match="values must be a numeric field, got dtype object"):
        spectral_derivative(np.zeros((4, 4, 4), dtype=object), 1)
