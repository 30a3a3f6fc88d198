"""Spectral calculus on uniform periodic grids over the unit 3-torus.

All fields live on an n x n x n uniform grid covering [0, 2*pi)^3, with
grid point (i1, i2, i3) at x = 2*pi/n * (i1, i2, i3).  Arrays carry the
three grid axes first; any remaining trailing axes hold tensor/matrix
components.  Differentiation is FFT-based and therefore exact (to
rounding) for trigonometric polynomials of per-axis degree < n/2.

The module also provides the momentum-space quadrature used by the
asymptotic coefficient routines: integration of degree-0 integrands
over the unit ball of a covariantly defined quadratic form, normalised
by (2*pi)^-3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EllipticityError, InputError, gate

TWO_PI = 2.0 * np.pi
VOLUME = TWO_PI**3
_PRUNE_TOL = 1e-15  # TrigInterpolant drops smaller Fourier coefficients


@dataclass(frozen=True)
class PeriodicChart:
    """Uniform n^3 sampling of the torus [0, 2*pi)^3.

    n must be even (so mode pairing under conjugation is clean) and at
    least 4 (anything smaller cannot carry a nontrivial band-limited
    field).
    """

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise InputError(f"grid size must be even and >= 4, got {self.n}")

    def axis_coordinates(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n) / self.n

    def mesh(self):
        """Return the three coordinate arrays, each of shape (n, n, n)."""
        x = self.axis_coordinates()
        return np.meshgrid(x, x, x, indexing="ij")


def chart_of(values: np.ndarray) -> PeriodicChart:
    """Recover the chart from the leading three axes of a field array."""
    if values.ndim < 3 or len({values.shape[0], values.shape[1], values.shape[2]}) != 1:
        raise InputError(f"field must have three equal leading grid axes, got shape {values.shape}")
    return PeriodicChart(values.shape[0])


def _integer_modes(n: int) -> np.ndarray:
    # FFT bin -> signed integer mode, in FFT storage order.
    return np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)


def _transposed(m: np.ndarray) -> np.ndarray:
    """m with its last two axes swapped, as a C-contiguous copy.

    A swapped view as an operand of @ sends numpy's batched matmul to
    its non-BLAS loop, which takes about three times as long on a grid
    of 3x3 matrices as the copy and the BLAS loop together.
    """
    return np.ascontiguousarray(np.swapaxes(m, -1, -2))


def spectral_derivative(values: np.ndarray, axis: int) -> np.ndarray:
    """Differentiate a periodic grid field along coordinate axis 1, 2 or 3.

    Parameters
    ----------
    values : ndarray
        Field samples, grid axes first.  Real or complex; trailing
        component axes are differentiated entrywise.
    axis : int
        Coordinate direction, 1-based.

    Returns
    -------
    ndarray of the same shape.  Real input yields real output.  The
    Nyquist mode is annihilated, the standard choice that keeps the
    derivative of a real field real; band-limited fields never populate
    it so the derivative is exact for them.
    """
    if axis not in (1, 2, 3):
        raise InputError(f"axis must be 1, 2 or 3, got {axis}")
    n = chart_of(values).n
    ax = axis - 1
    real = np.isrealobj(values)
    # real fields use the half spectrum, whose last bin is the Nyquist mode
    mult = 1j * (np.arange(n // 2 + 1) if real else _integer_modes(n))
    mult[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[ax] = len(mult)
    spectrum = np.fft.rfft(values, axis=ax) if real else np.fft.fft(values, axis=ax)
    spectrum *= mult.reshape(shape)  # in place: one spectrum-sized temporary, not two
    if real:
        return np.fft.irfft(spectrum, n=n, axis=ax)
    return np.fft.ifft(spectrum, axis=ax)


def derivative_stack(values: np.ndarray) -> np.ndarray:
    """All three coordinate derivatives, stacked on a new axis at position 3.

    Output shape: (n, n, n, 3, *component_shape); index 3 is the
    differentiation direction.
    """
    out = np.empty(values.shape[:3] + (3,) + values.shape[3:], dtype=np.result_type(values, float))
    for ax in (1, 2, 3):
        out[:, :, :, ax - 1] = spectral_derivative(values, ax)
    return out


def grid_integral(values: np.ndarray):
    """Integral over the torus: periodic trapezoid = grid mean * (2*pi)^3.

    Scalar fields give a scalar; trailing component axes are kept.
    """
    n3 = values.shape[0] * values.shape[1] * values.shape[2]
    return values.reshape(n3, *values.shape[3:]).mean(axis=0) * VOLUME


class TrigInterpolant:
    """Evaluate a grid field anywhere on the torus by trigonometric mode sum.

    The interpolant agrees with the samples at grid points and is the
    unique band-limited representative (Nyquist content split evenly
    between +n/2 and -n/2 so real fields interpolate to real values).
    Coefficients of magnitude at most _PRUNE_TOL are pruned for speed.
    """

    def __init__(self, values: np.ndarray):
        n = chart_of(values).n
        self.value_shape = values.shape[3:]
        self.real_input = np.isrealobj(values)
        coefs = np.fft.fftn(values, axes=(0, 1, 2)) / n**3
        modes = _integer_modes(n)
        m1, m2, m3 = np.meshgrid(modes, modes, modes, indexing="ij")
        mvec = np.stack([m1.ravel(), m2.ravel(), m3.ravel()], axis=1).astype(float)
        cflat = coefs.reshape(n**3, *self.value_shape)
        mags = np.abs(cflat).reshape(n**3, -1).max(axis=1)
        keep = mags > _PRUNE_TOL
        mvec, cflat = mvec[keep], cflat[keep]
        for ax in range(3):  # split Nyquist-bin content between the two aliased partners
            nyq = mvec[:, ax] == -(n // 2)
            cflat[nyq] *= 0.5
            partners = mvec[nyq]
            partners[:, ax] = n // 2
            mvec, cflat = np.concatenate([mvec, partners]), np.concatenate([cflat, cflat[nyq]])
        self.modes = _transposed(mvec)  # (3, nmodes)
        self.coefs = cflat

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        phases = np.exp(1j * pts @ self.modes)  # (npts, nmodes)
        vals = self._sum(phases)
        if single:
            return vals[0]
        return vals.reshape(points.shape[:-1] + self.value_shape)

    def gradient(self, point: np.ndarray) -> np.ndarray:
        """Analytic coordinate derivatives at one point, shape (3, *value_shape).

        Index 0 is the differentiation direction; at grid points this is
        the spectral derivative of the samples.
        """
        phase = np.exp(1j * np.asarray(point, dtype=float) @ self.modes)  # (nmodes,)
        return self._sum(1j * self.modes * phase)

    def _sum(self, weights: np.ndarray) -> np.ndarray:
        # (k, nmodes) mode weights against the coefficients; real fields stay real
        vals = np.tensordot(weights, self.coefs, axes=(1, 0))
        return vals.real if self.real_input else vals


# ---------------------------------------------------------------------------
# momentum-space quadrature
# ---------------------------------------------------------------------------

def sphere_design_14():
    """Weighted 14-point rule on the sphere, exact through degree 5.

    Octahedron vertices carry 2/5 of the total weight, cube vertices
    the remaining 3/5; weights sum to 4*pi.
    """
    oct_pts = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
    )
    c = 1.0 / np.sqrt(3.0)
    cube_pts = c * np.array(
        [[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)], dtype=float
    )
    pts = np.concatenate([oct_pts, cube_pts], axis=0)
    w = np.concatenate(
        [np.full(6, 0.4 * 2.0 * TWO_PI / 6.0), np.full(8, 0.6 * 2.0 * TWO_PI / 8.0)]
    )
    return pts, w


def metric_ball_map(g_contra: np.ndarray) -> tuple[np.ndarray, float]:
    """Linear map sending the Euclidean unit ball onto {xi : g(xi, xi) <= 1}.

    Returns (A, jac) where xi = A @ u and jac = det A = sqrt(det g_cov)
    is the constant Jacobian.  A is the principal (symmetric positive)
    square root of the covariant metric.
    """
    g = np.asarray(g_contra, dtype=float)
    w, v = np.linalg.eigh(g)
    if np.any(w <= 0.0):
        raise EllipticityError(f"metric is not positive definite, eigenvalues {w}")
    a = (v * (1.0 / np.sqrt(w))) @ _transposed(v)  # g_contra^(-1/2) = sqrt(g_cov)
    return a, float(1.0 / np.sqrt(np.prod(w)))


def fiber_ball_quadrature(g_contra: np.ndarray, integrand):
    """Integrate over the covector ball g(xi, xi) < 1 against (2*pi)^-3 dxi.

    Parameters
    ----------
    g_contra : (3, 3) ndarray
        Contravariant metric at the base point; must be symmetric
        positive definite.
    integrand : callable
        Vectorised map taking an (N, 3) array of covectors to an (N,)
        array of values; it must be homogeneous of degree 0 in xi.

    A degree-0 integrand is constant along rays, so with xi = A u from
    metric_ball_map its ball integral is (jac / 3) times its integral
    over the unit sphere in u, taken by sphere_design_14.  That is exact
    whenever the integrand restricts to a polynomial of degree <= 5 on
    the unit cosphere g(xi, xi) = 1.  The integrand is evaluated again
    at the half-length nodes; a relative change above 1e-12 raises
    InputError, since it is then not homogeneous of degree 0.
    """
    amap, jac = metric_ball_map(g_contra)
    upts, uw = sphere_design_14()
    xis = upts @ _transposed(amap)  # rows: A @ u, on the unit cosphere
    vals = np.asarray(integrand(xis))
    gate("integrand is not homogeneous of degree 0: halving xi moves it",
         np.asarray(integrand(0.5 * xis)) - vals, 1e-12 * float(np.abs(vals).max()), InputError)
    return (uw @ vals) * jac / (3.0 * VOLUME)
