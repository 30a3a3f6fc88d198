"""Spectral calculus on uniform periodic grids over the unit 3-torus.

All fields live on an n x n x n uniform grid covering [0, 2*pi)^3, with
grid point (i1, i2, i3) at x = 2*pi/n * (i1, i2, i3).  Arrays carry the
three grid axes first; any remaining trailing axes hold tensor/matrix
components (internal kernels may hold them first, as (..., n, n, n)).
Differentiation along a grid axis is one matrix product of the lines
with the even-n circulant derivative matrix (_derivative), which is
exact (to rounding) for trigonometric polynomials of per-axis degree
< n/2.  The only Fourier transforms here decide which modes a field
holds (_fourier_content).

The module also provides the momentum-space quadrature used by the
asymptotic coefficient routines: integration of degree-0 integrands
over the unit ball of a covariantly defined quadratic form, normalised
by (2*pi)^-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import index

import numpy as np

from .errors import EllipticityError, InputError, gate, is_number

TWO_PI = 2.0 * np.pi
VOLUME = TWO_PI**3
# The one rule (_fourier_content): a Fourier mode whose coefficients are all at most this is absent.
_FOURIER_TOL = 1e-13
# Largest grid: check_dirac plus b_density of a random Dirac operator peak
# at 721 MB RSS (8.6 s) at 96^3 and 1656 MB (21.5 s) at 128^3, about
# 0.8 KB per grid point (2-CPU Xeon VM, one BLAS thread).
_GRID_CEILING = 128


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
        try:
            object.__setattr__(self, "n", index(self.n))  # int or numpy integer; no float or string
        except TypeError:
            raise InputError(f"grid size must be an integer, got {self.n!r}") from None
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


def _fourier_content(values: np.ndarray) -> tuple:
    """A grid field's modes, signed (K, 3), and coefficients (K, *components), by one fftn / n^3:
    those where some component is above _FOURIER_TOL, in FFT storage order.  K may be 0."""
    n = chart_of(values).n
    coefs = np.fft.fftn(values, axes=(0, 1, 2)).reshape(n**3, *values.shape[3:])
    coefs /= n**3
    keep = np.flatnonzero(np.abs(coefs).reshape(n**3, -1).max(axis=1) > _FOURIER_TOL)
    return _integer_modes(n)[np.stack(np.unravel_index(keep, (n, n, n)), axis=1)], coefs[keep]


def _transposed(m: np.ndarray) -> np.ndarray:
    """m with its last two axes swapped, as a C-contiguous copy.

    A swapped view as an operand of @ sends numpy's batched matmul to
    its non-BLAS loop, which takes about three times as long on a grid
    of 3x3 matrices as the copy and the BLAS loop together.
    """
    return np.ascontiguousarray(np.swapaxes(m, -1, -2))


def _cot_weights(n: int) -> np.ndarray:
    """The even-n derivative weights w(d) = (-1)^d cot(pi d/n) / 2, d = 0, ..., n - 1.

    On a periodic line of n samples the derivative at index i is
    sum_j w(i - j) f_j (Trefethen, Spectral Methods in MATLAB, ch. 3): the
    derivative of the band-limited interpolant, its Nyquist mode
    annihilated.  Built exactly antisymmetric, w(n - d) = -w(d) with
    w(0) = w(n/2) = 0, so each row of the matrix sums to zero pair by pair.
    """
    d = np.arange(1, n // 2)
    half = 0.5 * (-1.0) ** d / np.tan(np.pi * d / n)
    return np.concatenate([[0.0], half, [0.0], -half[::-1]])


def _derivative(values: np.ndarray, axis: int) -> np.ndarray:
    """d/dx of a periodic field along array axis `axis`, one of its grid axes, by one np.matmul.

    The lines along the axis go through the circulant matrix
    D[i, j] = w(i - j) of _cot_weights.  Each line is first centred on
    its first sample, which D sends to zero: that subtraction is exact
    where a line is nearly constant, so rounding follows the field's
    variation rather than its size.  The centred copy is C-contiguous
    (any input layout is read), and a complex field goes through as
    float pairs.  Real input, integer included, gives float64 output,
    complex input complex128; the result has the input's shape and is
    C-contiguous.
    """
    x = np.asarray(values)
    shape, n = x.shape, x.shape[axis]
    first = x[(slice(None),) * (axis % x.ndim) + (slice(0, 1),)]
    centred = np.empty(shape, dtype=complex if np.iscomplexobj(x) else float)
    np.subtract(x, first, out=centred, dtype=centred.dtype)
    lines = centred.view(float).reshape(int(np.prod(shape[:axis], dtype=np.int64)), n, -1)
    line = np.arange(n)
    dmat = _cot_weights(n)[(line[:, None] - line) % n]
    if lines.shape[2] == 1:  # the axis is the last: one gemm on rows, by D^T = -D
        out = lines[..., 0] @ -dmat
    else:
        out = np.matmul(dmat, lines)
    return out.view(centred.dtype).reshape(shape)


def spectral_derivative(values: np.ndarray, axis: int) -> np.ndarray:
    """Differentiate a periodic grid field along coordinate axis 1, 2 or 3.

    Parameters
    ----------
    values : ndarray
        Field samples, grid axes first.  Real, integer or complex;
        trailing component axes are differentiated entrywise.
    axis : int
        Coordinate direction, 1-based.  A bool or a float is refused.

    Returns
    -------
    ndarray of the same shape, float64 for real or integer input and
    complex128 for complex input.  It is the derivative of the
    band-limited interpolant with the Nyquist mode annihilated, the
    standard choice that keeps the derivative of a real field real;
    band-limited fields never populate that mode, so the derivative is
    exact for them.  It is taken by one matrix product (_derivative).
    """
    if not is_number(axis, integral=True) or axis not in (1, 2, 3):
        raise InputError(f"axis must be 1, 2 or 3, got {axis!r}")
    values = np.asarray(values)
    if values.dtype.kind not in "biufc":
        raise InputError(f"values must be a numeric field, got dtype {values.dtype}")
    chart_of(values)
    return _derivative(values, axis - 1)


def _grid_line_jets(values: np.ndarray, points) -> tuple:
    """values[idx] and spectral_derivative(values, a + 1)[idx], a = 0, 1, 2, at (k, 3) grid points.

    Shapes (k, *components) and (k, 3, *components).  Only the 3k grid
    lines through the points are read, each against the row of
    _cot_weights that _derivative applies at its index.
    """
    n, pts = chart_of(values).n, np.asarray(points, dtype=np.int64)
    line, tail = np.arange(n), (1,) * (values.ndim - 3)
    weights = _cot_weights(n)
    grads = np.empty((len(pts), 3) + values.shape[3:], dtype=np.result_type(values, float))
    for a in range(3):
        through = [line if b == a else pts[:, b, None] for b in range(3)]  # (k, n) axis-a lines
        kernel = weights[(pts[:, a, None] - line) % n].reshape((len(pts), n) + tail)
        grads[:, a] = (kernel * values[tuple(through)]).sum(axis=1)
    return values[tuple(pts.T)], grads


def grid_integral(values: np.ndarray):
    """Integral over the torus: periodic trapezoid = grid mean * (2*pi)^3.

    Scalar fields give a scalar; trailing component axes are kept.
    """
    n3 = chart_of(values).n ** 3
    return values.reshape(n3, *values.shape[3:]).mean(axis=0) * VOLUME


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
    if not np.all(np.isfinite(g)):
        raise InputError("metric contains non-finite entries")
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
