"""Grid calculus: spectral derivatives, mode maps, quadrature."""

import numpy as np
import pytest

from diracweyl.errors import EllipticityError, InputError
from diracweyl.geometry import symbol_from_frame
from diracweyl.scenarios import random_band_limited_frame
from diracweyl.fields import (
    PeriodicChart,
    TrigInterpolant,
    chart_of,
    derivative_stack,
    fiber_ball_quadrature,
    field_from_modes,
    fourier_modes,
    grid_integral,
    hermitian_residual,
    metric_ball_map,
    radial_rule,
    sphere_design_14,
    sphere_rule,
    spectral_derivative,
)

TWO_PI = 2.0 * np.pi


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


def test_derivative_stack_matches_componentwise_derivatives():
    x1, x2, _ = _mesh(12)
    f = np.stack([np.sin(x1), np.cos(x2)], axis=-1)
    st = derivative_stack(f)
    assert st.shape == (12, 12, 12, 3, 2)
    assert np.abs(st[..., 0, 0] - np.cos(x1)).max() < 1e-12
    assert np.abs(st[..., 1, 1] + np.sin(x2)).max() < 1e-12
    assert np.abs(st[..., 2, :]).max() < 1e-13


def test_fourier_round_trip():
    """fourier_modes and field_from_modes are mutually inverse."""
    rng = np.random.default_rng(0)
    n = 8
    f = rng.standard_normal((n, n, n))
    modes = fourier_modes(f)
    back = field_from_modes(modes, n)
    assert np.abs(back - f).max() < 1e-12


def test_fourier_modes_drop_tol_prunes():
    f = field_from_modes({(1, 0, 0): 1.0, (0, 3, 0): 1e-9}, 8)
    kept = fourier_modes(f, drop_tol=1e-6)
    assert all(abs(c) > 1e-6 for c in kept.values())
    assert (0, 3, 0) not in kept


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

    def test_matrix_valued_fields(self):
        x1, _, _ = _mesh(8)
        f = np.zeros((8, 8, 8, 2, 2))
        f[..., 0, 1] = np.sin(x1)
        interp = TrigInterpolant(f)
        v = interp(np.array([0.3, 0.0, 0.0]))
        assert v.shape == (2, 2)
        assert abs(v[0, 1] - np.sin(0.3)) < 1e-11


def _gradient_cases():
    rng = np.random.default_rng(17)
    real = rng.standard_normal((8, 8, 8))  # populates every Nyquist bin
    symbol = symbol_from_frame(random_band_limited_frame(4, n=8)).sigma
    return {"real-with-nyquist": real, "complex-symbol": symbol}


@pytest.mark.parametrize("name", ["real-with-nyquist", "complex-symbol"])
def test_interpolant_gradient_is_the_spectral_derivative_at_grid_points(name):
    """The analytic gradient of the interpolant reproduces derivative_stack on the grid."""
    values = _gradient_cases()[name]
    interp = TrigInterpolant(values)
    stack = derivative_stack(values)
    rng = np.random.default_rng(23)
    for p in rng.integers(0, 8, size=(12, 3)):
        grad = interp.gradient(TWO_PI * p / 8)
        assert grad.shape == (3,) + values.shape[3:]
        assert np.isrealobj(grad) == np.isrealobj(values)
        assert np.abs(grad - stack[tuple(p)]).max() <= 1e-12


# --- quadrature ------------------------------------------------------------

def test_sphere_rule_moments():
    pts, w = sphere_rule(17)
    assert abs(w.sum() - 4 * np.pi) < 1e-12
    # even monomial moments: x^2 -> 4pi/3, x^2 y^4 -> 4pi/35
    assert abs((w * pts[:, 0] ** 2).sum() - 4 * np.pi / 3) < 1e-12
    assert abs((w * pts[:, 0] ** 2 * pts[:, 1] ** 4).sum() - 4 * np.pi / 35) < 1e-12
    # odd moments vanish
    assert abs((w * pts[:, 2] ** 3).sum()) < 1e-12


def test_sphere_design_14_low_degree_moments():
    pts, w = sphere_design_14()
    assert abs(w.sum() - 4 * np.pi) < 1e-12
    assert abs((w * pts[:, 1] ** 2).sum() - 4 * np.pi / 3) < 1e-12
    assert abs((w * pts[:, 0] ** 2 * pts[:, 2] ** 2).sum() - 4 * np.pi / 15) < 1e-12


def test_radial_rule_polynomial():
    r, w = radial_rule(8)
    assert abs((w * r**3).sum() - 0.25) < 1e-14


def test_metric_ball_map_is_sqrt_of_covariant_metric():
    g_contra = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    amap, jac = metric_ball_map(g_contra)
    g_cov = np.linalg.inv(g_contra)
    assert np.abs(amap @ amap - g_cov).max() < 1e-12
    assert abs(jac - np.sqrt(np.linalg.det(g_cov))) < 1e-12


def test_metric_ball_map_rejects_indefinite():
    with pytest.raises(EllipticityError, match="positive definite"):
        metric_ball_map(np.diag([1.0, -1.0, 1.0]))


class TestFiberBallQuadrature:
    """Covector-ball integrals against the (2 pi)^-3 reference measure."""

    def test_euclidean_volume(self):
        val = fiber_ball_quadrature(np.eye(3), lambda xi: np.ones(len(xi)))
        assert abs(val - 1.0 / (6 * np.pi**2)) < 1e-13

    def test_euclidean_quadratic(self):
        # integral of |xi|^2 over the unit ball is 4pi/5
        val = fiber_ball_quadrature(np.eye(3), lambda xi: (xi**2).sum(axis=1))
        assert abs(val - (4 * np.pi / 5) / TWO_PI**3) < 1e-13

    def test_anisotropic_volume(self):
        # g_contra = diag(4,1,1): ball volume scales by sqrt(det g_cov) = 1/2
        val = fiber_ball_quadrature(np.diag([4.0, 1.0, 1.0]), lambda xi: np.ones(len(xi)))
        assert abs(val - 0.5 / (6 * np.pi**2)) < 1e-13

    def test_cheap_rule_override(self):
        val = fiber_ball_quadrature(
            np.eye(3), lambda xi: xi[:, 0] ** 2, rule=sphere_design_14()
        )
        assert abs(val - (4 * np.pi / 15) / TWO_PI**3) < 1e-13


def test_hermitian_residual_detects_skew_part():
    h = np.zeros((4, 4, 4, 2, 2), complex)
    h[..., 0, 1] = 1.0
    h[..., 1, 0] = 1.0
    assert hermitian_residual(h) < 1e-15
    h[..., 1, 0] = 1.0 + 0.5j
    assert abs(hermitian_residual(h) - 0.5) < 1e-12


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
    stack = derivative_stack(f)
    assert stack.dtype == np.float64
    assert np.array_equal(stack[:, :, :, 1], spectral_derivative(f, 2))


def test_fourier_modes_match_the_mode_by_mode_scan():
    """Same keys, values and insertion order as reading every FFT bin in turn."""
    n = 6
    f = np.random.default_rng(5).standard_normal((n, n, n))
    coefs = np.fft.fftn(f) / f.size
    freq = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    for tol in (0.0, 0.02):
        want = {
            (int(freq[i]), int(freq[j]), int(freq[k])): complex(coefs[i, j, k])
            for i in range(n) for j in range(n) for k in range(n)
            if tol == 0.0 or abs(coefs[i, j, k]) > tol
        }
        got = fourier_modes(f, drop_tol=tol)
        assert list(got.items()) == list(want.items())
