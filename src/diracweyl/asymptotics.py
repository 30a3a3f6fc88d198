"""Two-term heat/counting asymptotics for elliptic 2x2 first-order systems.

For an admissible operator the counting function of positive
eigenvalues grows like a*lambda^3 + b*lambda^2 with densities

    a(x) = sqrt(det g) / (6 pi^2)
    b(x) = (3 c *T_ax - 2 tr A_sub) sqrt(det g) / (8 pi^2)

where c is the orientation charge, *T_ax the axial torsion dual of the
decoded frame and A_sub the subprincipal symbol.  The module computes
these closed forms and, independently, the momentum-space fibre
integrals they compress: the first coefficient from tr(A_sub P+), the
second both from the dual torsion quadratic form and from the U(1)
curvature of the positive eigenbundle.  That curvature takes the x- and
xi-derivatives of the gauge-anchored eigenvector from one first-order
perturbation formula, with the symbol's x-derivative read from the
analytic gradient of its trigonometric interpolant; no finite
differences are taken.  Route agreement is what the test-suite and the
acceptance gate lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, gate
from .fields import TWO_PI, TrigInterpolant, fiber_ball_quadrature, grid_integral
from .geometry import (
    MetricField,
    PrincipalSymbolField,
    _gram,
    decode_frame,
    decode_metric,
    pauli_components,
    pauli_matrices,
    torsion,
)
from .operators import EPS_CONJ, FirstOrderOperator, subprincipal_symbol


def _principal(obj) -> PrincipalSymbolField:
    if isinstance(obj, FirstOrderOperator):
        return obj.sigma
    if isinstance(obj, PrincipalSymbolField):
        return obj
    raise InputError(f"expected a symbol or operator, got {type(obj).__name__}")


def _vectors3(value, name: str) -> np.ndarray:
    """A 3-vector or a (k, 3) array of them, as floats."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != 3:
        raise InputError(f"{name} must be a 3-vector or a (k, 3) array, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# fibre eigenvector algebra
# ---------------------------------------------------------------------------

def _positive_band(smats: np.ndarray, xis: np.ndarray):
    """Positive eigenvalue and anchored eigenvector of M(xi) = sigma^a xi_a.

    smats: (3, 2, 2) symbol matrices at one point; xis: (K, 3).
    Returns (h, v, anchors): h = |m| > 0 of shape (K,), v of shape
    (K, 2) and anchors[k] in {0, 1}, the component of v kept real
    positive.  The anchor is the component of larger modulus, so it is
    at least 1/sqrt(2).
    """
    m = pauli_components(np.tensordot(xis, smats, axes=(1, 0)))  # (K, 3)
    h = np.sqrt((m**2).sum(axis=1))
    if np.any(h < 1e-12):
        raise InputError("covector is (numerically) zero; the fibre eigenvalue degenerates")
    up = m[:, 2] >= 0.0
    w = h + np.abs(m[:, 2])
    off = m[:, 0] + 1j * m[:, 1]
    v = np.stack([np.where(up, w, np.conj(off)), np.where(up, off, w)], axis=1)
    return h, v / np.sqrt(2.0 * h * w)[:, None], np.where(up, 0, 1)


class _FiberFrame:
    """Eigenvector derivatives of the positive fibre band at a fixed base point.

    Reads p and its coordinate gradient at the base point from a
    trigonometric interpolant of p, once each, as symbol matrices.  Both
    derivatives of v+ come from exact first-order perturbation of the
    2x2 eigenproblem,

        d v+ = (v-* dM v+) / (2 h) v- + i gamma v+,

    with dM = sigma^a for the covector slot a and dM = (d_a sigma^b) xi_b
    for the coordinate slot a.  The phase term i gamma v+ keeps the
    anchored component of v+ real; no finite differences are taken.
    """

    def __init__(self, interp: TrigInterpolant, x: np.ndarray):
        self.s_center = pauli_matrices(interp(x).T)  # (3, 2, 2)
        self.ds = pauli_matrices(np.swapaxes(interp.gradient(x), -1, -2))  # d_a sigma^b

    def eval(self, xis: np.ndarray):
        """Return (h, v, dv_dx, dv_dxi) for a batch of covectors.

        dv_dx and dv_dxi have shape (3, K, 2); the leading index is the
        coordinate/covector slot.
        """
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        h, v, anchors = _positive_band(self.s_center, xis)
        v_minus = np.conj(v) @ -EPS_CONJ  # EPS_CONJ.T = -EPS_CONJ
        idx = np.arange(len(xis))

        def derivative(dm):  # dm: (3, K or 1, 2, 2)
            coef = (np.conj(v_minus)[:, None, :] @ dm @ v[:, :, None])[..., 0, 0] / (2.0 * h)
            delta = coef[..., None] * v_minus
            gamma = -delta[:, idx, anchors].imag / v[idx, anchors].real
            return delta + 1j * gamma[..., None] * v

        dm_dx = np.tensordot(xis, self.ds, axes=(1, 1)).transpose(1, 0, 2, 3)
        return h, v, derivative(dm_dx), derivative(self.s_center[:, None])

    def curvature(self, xis: np.ndarray) -> np.ndarray:
        """-i {v+*, v+} = 2 Im sum_a <d_{x^a} v+, d_{xi_a} v+> for a batch of covectors."""
        _, _, dv_dx, dv_dxi = self.eval(xis)
        return 2.0 * np.einsum("akp,akp->k", np.conj(dv_dx), dv_dxi).imag


def u1_curvature(sym, x, xi):
    """Curvature of the positive eigenbundle at points of phase space.

    Equals (c/2) (*T)(xi, xi) / g(xi, xi)^{3/2} for the decoded
    geometry; homogeneous of degree -1 in xi and independent of the
    anchoring gauge.  A base point x and covector xi give a float; (k, 3)
    arrays of them, paired row by row, give k values from one
    interpolant of the symbol.
    """
    sym = _principal(sym)
    xs, xis = _vectors3(x, "base point x"), _vectors3(xi, "covector xi")
    if xs.shape != xis.shape:
        raise InputError(f"base points {xs.shape} and covectors {xis.shape} must pair row by row")
    interp = TrigInterpolant(sym.p)
    vals = np.array([_FiberFrame(interp, pt).curvature(cov)[0]
                     for pt, cov in zip(np.atleast_2d(xs), np.atleast_2d(xis))])
    return float(vals[0]) if xs.ndim == 1 else vals


# ---------------------------------------------------------------------------
# coefficient densities
# ---------------------------------------------------------------------------

def a_density(metric: MetricField) -> np.ndarray:
    """Leading Weyl density sqrt(det g)/(6 pi^2)."""
    return metric.vol / (6.0 * np.pi**2)


def _weyl_b(metric: MetricField, asub=None, tor=None) -> np.ndarray:
    """Closed form (3 c *T_ax - 2 tr A_sub) sqrt(det g) / (8 pi^2) of b.

    Leaving out the torsion gives b1, leaving out A_sub gives b2.
    """
    axial = 0.0 if tor is None else 3.0 * tor.charge * tor.axial_dual
    trace = 0.0 if asub is None else (asub[..., 0, 0] + asub[..., 1, 1]).real
    return (axial - 2.0 * trace) * metric.vol / (8.0 * np.pi**2)


def b1_density(op: FirstOrderOperator) -> np.ndarray:
    """Subprincipal contribution -(tr A_sub) sqrt(det g) / (4 pi^2)."""
    return _weyl_b(decode_metric(op.sigma), asub=subprincipal_symbol(op))


def _grid_points(points, n: int) -> list:
    """Index triples of a (k, 3) array of integer grid indices in [0, n).

    Anything else raises InputError naming the first bad row.
    """
    arr = np.asarray(points)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.dtype.kind not in "iuf":
        raise InputError(
            f"points must be a (k, 3) array of integer grid indices, "
            f"got {arr.dtype} of shape {arr.shape}"
        )
    bad = ~((arr == np.floor(arr)) & (arr >= 0) & (arr < n)).all(axis=1)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise InputError(
            f"points row {row} = {arr[row].tolist()} is not a grid index triple in [0, {n})"
        )
    return [tuple(p) for p in arr.astype(np.int64).tolist()]


def b1_density_fiber(op: FirstOrderOperator, points) -> np.ndarray:
    """Fibre-quadrature route to b1 at selected grid points.

    Integrates -3 tr(A_sub P+) over the unit covector ball; agrees with
    the closed form within 1e-7.
    """
    if not isinstance(op, FirstOrderOperator):
        raise InputError(f"op must be a FirstOrderOperator, got {type(op).__name__}")
    points = _grid_points(points, op.sigma.chart.n)
    asub = subprincipal_symbol(op)
    out = np.empty(len(points))
    for i, p in enumerate(points):
        comps, amat = op.sigma.p[p], asub[p]
        g = _gram(comps)
        tr_a = np.trace(amat).real
        tr_as = 2.0 * pauli_components(amat - 0.5 * tr_a * np.eye(2))  # tr(A_sub s^j)

        def integrand(xis):
            h = np.sqrt(np.einsum("ka,ab,kb->k", xis, g, xis))
            tr_am = xis @ (tr_as @ comps)  # tr(A_sub sigma(xi)) with sigma(xi) = s^j p_j^a xi_a
            return -3.0 * (tr_am + h * tr_a) / (2.0 * h)

        out[i] = fiber_ball_quadrature(g, integrand)
    return out


def b2_density(sym) -> np.ndarray:
    """Torsion contribution c (*T)^g_g sqrt(det g) / (8 pi^2), closed form."""
    sym = _principal(sym)
    metric = decode_metric(sym)
    return _weyl_b(metric, tor=torsion(decode_frame(sym), metric))


def b2_density_fiber_torsion(sym, points) -> np.ndarray:
    """Fibre quadrature of (9c/4) (*T)(xi, xi)/g(xi, xi) at grid points."""
    sym = _principal(sym)
    points = _grid_points(points, sym.chart.n)
    frame = decode_frame(sym)
    metric = decode_metric(sym)
    tor = torsion(frame, metric)
    out = np.empty(len(points))
    for i, p in enumerate(points):
        g = metric.g_contra[p]
        tmat = tor.star_T[p] @ g  # (*T)^a_c g^{cb}, at this point only

        def integrand(xis):
            num = np.einsum("ka,ab,kb->k", xis, tmat, xis)
            den = np.einsum("ka,ab,kb->k", xis, g, xis)
            return 2.25 * tor.charge * num / den

        out[i] = fiber_ball_quadrature(g, integrand)
    return out


def b2_density_fiber_curvature(sym, points) -> np.ndarray:
    """Fibre quadrature of (9/2) h+ times the eigenbundle curvature.

    The heaviest route: eigenvector derivatives, both from first-order
    perturbation (see _FiberFrame), at every quadrature node.  The
    integrand equals (9c/4) (*T)(xi, xi) on the unit cosphere, a
    quadratic form, so the cosphere rule is exact for it.
    """
    sym = _principal(sym)
    n = sym.chart.n
    points = _grid_points(points, n)
    interp = TrigInterpolant(sym.p)
    out = np.empty(len(points))
    for i, p in enumerate(points):
        fib = _FiberFrame(interp, TWO_PI * np.array(p, dtype=float) / n)
        g = _gram(sym.p[p])

        def integrand(xis):
            h = np.sqrt(np.einsum("ka,ab,kb->k", xis, g, xis))
            return 4.5 * h * fib.curvature(xis)

        out[i] = fiber_ball_quadrature(g, integrand)
    return out


@dataclass(eq=False)
class AsymptoticCoefficients:
    """Weyl densities and their torus integrals for one operator."""

    a: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b: np.ndarray
    a_global: float
    b_global: float
    charge: int

    def __post_init__(self):
        scale = max(1.0, float(np.abs(self.b).max()))
        gate("b decomposition b = b1 + b2 violated", self.b - (self.b1 + self.b2), 1e-12 * scale)


def b_density(op: FirstOrderOperator) -> AsymptoticCoefficients:
    """All coefficient densities of an operator, with torus integrals.

    b is assembled from the closed form
    (3 c *T_ax - 2 tr A_sub) sqrt(det g)/(8 pi^2) and must coincide
    with b1 + b2 to rounding.
    """
    metric = decode_metric(op.sigma)
    return _coefficients(metric, subprincipal_symbol(op), torsion(decode_frame(op.sigma), metric))


def _coefficients(metric: MetricField, asub: np.ndarray, tor) -> AsymptoticCoefficients:
    """The densities from an already decoded metric, subprincipal symbol and torsion."""
    a = a_density(metric)
    b = _weyl_b(metric, asub, tor)
    return AsymptoticCoefficients(
        a=a,
        b1=_weyl_b(metric, asub=asub),
        b2=_weyl_b(metric, tor=tor),
        b=b,
        a_global=float(grid_integral(a)),
        b_global=float(grid_integral(b)),
        charge=tor.charge,
    )
