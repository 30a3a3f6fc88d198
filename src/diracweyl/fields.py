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
from itertools import product

import numpy as np

from .errors import EllipticityError, InputError, gate

TWO_PI = 2.0 * np.pi
VOLUME = TWO_PI**3
# Fourier coefficients of at most this size count as zero: TrigInterpolant
# prunes them and the Galerkin assembly in spectra drops them.
_FOURIER_TOL = 1e-13
# Largest grid: check_dirac plus b_density of a random Dirac operator peak
# at 721 MB RSS (8.6 s) at 96^3 and 1656 MB (21.5 s) at 128^3, about
# 0.8 KB per grid point (2-CPU Xeon VM, one BLAS thread).
_GRID_CEILING = 128
# TrigInterpolant evaluates its points in blocks whose complex mode weights
# take at most 8 MB, so its memory does not grow with the number of points.
_WEIGHT_BYTES = 2**23


@dataclass(frozen=True)
class PeriodicChart:
    """Uniform n^3 sampling of the torus [0, 2*pi)^3.

    n must be even (so mode pairing under conjugation is clean), at
    least 4 (anything smaller cannot carry a nontrivial band-limited
    field) and at most _GRID_CEILING, so a grid that would not fit in
    memory is refused before anything is allocated.
    """

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise InputError(f"grid size must be even and >= 4, got {self.n}")
        if self.n > _GRID_CEILING:
            raise InputError(f"grid size {self.n} is over the ceiling of {_GRID_CEILING}: an "
                             f"analysis takes about 0.8 KB per grid point, 1.7 GB at "
                             f"{_GRID_CEILING}^3")

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


def _grid_line_jets(values: np.ndarray, points) -> tuple:
    """values[idx] and spectral_derivative(values, a + 1)[idx], a = 0, 1, 2, at (k, 3) grid points.

    Shapes (k, *components) and (k, 3, *components).  Only the 3k grid
    lines through the points are read: on an even grid the derivative at
    line index i is sum_j w(i - j) f_j, with w(d) = (-1)^d cot(pi d/n) / 2
    and w(0) = 0 (Trefethen, Spectral Methods in MATLAB, ch. 3).
    """
    n, pts = chart_of(values).n, np.asarray(points, dtype=np.int64)
    d, line, tail = np.arange(1, n), np.arange(n), (1,) * (values.ndim - 3)
    weights = np.concatenate([[0.0], 0.5 * (-1.0) ** d / np.tan(np.pi * d / n)])
    grads = np.empty((len(pts), 3) + values.shape[3:], dtype=np.result_type(values, float))
    for a in range(3):
        through = [line if b == a else pts[:, b, None] for b in range(3)]  # (k, n) axis-a lines
        kernel = weights[(pts[:, a, None] - line) % n].reshape((len(pts), n) + tail)
        grads[:, a] = (kernel * values[tuple(through)]).sum(axis=1)
    return values[tuple(pts.T)], grads


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

    The unique band-limited representative (Nyquist content split evenly
    between +n/2 and -n/2 so real fields interpolate to real values) less
    its coefficients of size at most _FOURIER_TOL, pruned for speed: at grid
    points it misses the samples by up to their sum, 2.0e-12 at 200 points
    of random_band_limited_frame(2, 16)'s 16^3 symbol (2197 of 4096 modes kept).
    """

    def __init__(self, values: np.ndarray):
        n = chart_of(values).n
        self.value_shape = values.shape[3:]
        self.real_input = np.isrealobj(values)
        coefs = np.fft.fftn(values, axes=(0, 1, 2)) / n**3
        modes = _integer_modes(n).astype(float)
        mvec = np.stack(np.meshgrid(modes, modes, modes, indexing="ij"), axis=-1).reshape(-1, 3)
        cflat = coefs.reshape(n**3, *self.value_shape)
        mags = np.abs(cflat).reshape(n**3, -1).max(axis=1)
        keep = mags > _FOURIER_TOL
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
        """Values at a point or a (..., 3) stack of points, shape (..., *value_shape)."""
        return self._sum(points, None)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Analytic coordinate derivatives at a point or a (..., 3) stack of points.

        Shape (..., 3, *value_shape): the axis after the points is the
        differentiation direction.  At grid points it misses the spectral
        derivative by the pruned modes times their mode numbers: by 1.45e-11
        on the symbol above, whose derivatives reach 3.6e-3.
        """
        return self._sum(points, 1j * self.modes)

    def _sum(self, points: np.ndarray, factors) -> np.ndarray:
        """Sum of c_m exp(i m.x) at each point x, term m times factors[:, m] unless None.

        factors (r, nmodes) adds an axis of length r after the points'.  The
        points go in blocks whose (k, r, nmodes) weights fit in _WEIGHT_BYTES.
        """
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (3,):
            raise InputError(f"points must have a last axis of length 3, got shape {points.shape}")
        pts, rows = points.reshape(-1, 3), (1 if factors is None else len(factors))
        step = max(1, _WEIGHT_BYTES // (16 * rows * max(1, len(self.coefs))))  # no modes: zeros
        vals = np.concatenate([self._block_sum(pts[i:i + step], factors)
                               for i in range(0, max(len(pts), 1), step)])
        tail = () if factors is None else (rows,)
        return vals.reshape(points.shape[:-1] + tail + self.value_shape)

    def _block_sum(self, pts: np.ndarray, factors) -> np.ndarray:
        # 1j * (x @ m), not (1j * x) @ m: a complex @ operand takes numpy's non-BLAS loop
        weights = np.exp(1j * (pts @ self.modes))  # (k, nmodes)
        if factors is not None:
            weights = weights[:, None, :] * factors  # (k, r, nmodes)
        vals = np.tensordot(weights, self.coefs, axes=(-1, 0))
        return vals.real if self.real_input else vals


# ---------------------------------------------------------------------------
# momentum-space quadrature
# ---------------------------------------------------------------------------

def sphere_design_14():
    """Weighted 14-point rule on the sphere, exact through degree 5.

    Octahedron vertices carry 2/5 of the total weight, cube vertices
    the remaining 3/5; weights sum to 4*pi.
    """
    oct_pts = np.kron(np.eye(3), [[1.0], [-1.0]])  # +e1, -e1, +e2, ...
    cube_pts = np.array(list(product((1.0, -1.0), repeat=3))) / np.sqrt(3.0)
    w = np.concatenate([np.full(6, 0.4 * 2.0 * TWO_PI / 6.0), np.full(8, 0.6 * 2.0 * TWO_PI / 8.0)])
    return np.concatenate([oct_pts, cube_pts]), w


def metric_ball_map(g_contra: np.ndarray) -> tuple:
    """Linear map sending the Euclidean unit ball onto {xi : g(xi, xi) <= 1}.

    Returns (A, jac) where xi = A @ u and jac = det A = sqrt(det g_cov)
    is the constant Jacobian.  A is the principal (symmetric positive)
    square root of the covariant metric.  A (..., 3, 3) stack of metrics
    gives stacks of both, one metric a (3, 3) A and a float jac.
    """
    g = np.asarray(g_contra, dtype=float)
    w, v = np.linalg.eigh(g)
    bad = np.any(w <= 0.0, axis=-1)
    if np.any(bad):
        raise EllipticityError(f"metric is not positive definite, eigenvalues {w[bad][0]}")
    a = (v * (1.0 / np.sqrt(w))[..., None, :]) @ _transposed(v)  # g_contra^(-1/2) = sqrt(g_cov)
    jac = 1.0 / np.sqrt(np.prod(w, axis=-1))
    return a, (float(jac) if g.ndim == 2 else jac)


def fiber_ball_quadrature(g_contra: np.ndarray, integrand):
    """Integrate over the covector ball g(xi, xi) < 1 against (2*pi)^-3 dxi.

    g_contra is the contravariant metric at a base point, (3, 3), or a
    (..., 3, 3) stack of them, each symmetric positive definite.  The
    vectorised integrand maps the (..., 14, 3) covector nodes of the
    base points to (..., 14) values and must be homogeneous of degree 0
    in xi.  Returns the (...,) integrals, a scalar for one metric.

    A degree-0 integrand is constant along rays, so with xi = A u from
    metric_ball_map its ball integral is (jac / 3) times its integral
    over the unit sphere in u, taken by sphere_design_14.  That is exact
    whenever the integrand restricts to a polynomial of degree <= 5 on
    the unit cosphere g(xi, xi) = 1.  The integrand is evaluated again
    at the half-length nodes; a change at any base point above 1e-12 of
    that point's largest |value| (at either length) raises InputError,
    since the integrand is then not homogeneous of degree 0.
    """
    amap, jac = metric_ball_map(g_contra)
    upts, uw = sphere_design_14()
    xis = upts @ _transposed(amap)  # rows: A @ u, on the unit cosphere
    vals, half = np.asarray(integrand(xis)), np.asarray(integrand(0.5 * xis))
    moved = np.abs(half - vals).max(axis=-1)
    # moved <= 2 * scale, so the ratio neither overflows nor, where all values are 0, divides by 0
    scale = np.maximum(np.abs(vals).max(axis=-1), np.abs(half).max(axis=-1))
    gate("integrand is not homogeneous of degree 0: halving xi moves it, relative to its largest "
         "value", moved / np.maximum(scale, np.finfo(float).tiny), 1e-12, InputError)
    return (vals @ uw) * jac / (3.0 * VOLUME)
