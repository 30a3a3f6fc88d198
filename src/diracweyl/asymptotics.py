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
curvature of the positive eigenbundle.  For the trace-free symbol
s^j m_j(x, xi) that curvature is the spin-1/2 monopole form in m and
its x- and xi-derivatives.  Both second-coefficient routes read the
x-derivative from the analytic gradient of the symbol's trigonometric
interpolant at their points alone; no eigenvector is built and no
finite differences are taken.  Route agreement is what the test-suite
and the acceptance gate lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, gate
from .fields import TWO_PI, TrigInterpolant, _transposed, fiber_ball_quadrature, grid_integral
from .geometry import (
    MetricField,
    PrincipalSymbolField,
    decode_frame,
    decode_metric,
    pauli_components,
    torsion,
)
from .operators import FirstOrderOperator, subprincipal_symbol


def _principal(obj) -> PrincipalSymbolField:
    if isinstance(obj, FirstOrderOperator):
        return obj.sigma
    if isinstance(obj, PrincipalSymbolField):
        return obj
    raise InputError(f"expected a symbol or operator, got {type(obj).__name__}")


def _vectors3(value, name: str) -> np.ndarray:
    """A finite 3-vector or a (k, 3) array of them, as floats."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != 3:
        raise InputError(f"{name} must be a 3-vector or a (k, 3) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has non-finite entries")
    return arr


# ---------------------------------------------------------------------------
# eigenbundle curvature
# ---------------------------------------------------------------------------

def _monopole_curvature(p: np.ndarray, dp: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """-i {v+*, v+} of the positive eigenbundle at one base point, for a batch of covectors.

    p: (3, 3) symbol components p_j^a at the base point; dp: (3, 3, 3)
    their coordinate gradient, index 0 the direction; xis: (K, 3).  The
    symbol sigma(xi) = s^j m_j with m = p xi is trace-free, so the
    curvature is the spin-1/2 monopole form

        sum_a m . (d_{x^a} m x d_{xi_a} m) / (2 |m|^3),

    with d_{x^a} m = (d_a p) xi and d_{xi_a} m = p[:, a]; no eigenvector
    is needed.
    """
    xis = np.atleast_2d(xis)
    m = np.tensordot(xis, p, axes=(1, 1))  # (K, 3)
    h = np.sqrt((m**2).sum(axis=1))
    if np.any(h < 1e-12):
        raise InputError("covector is (numerically) zero; the fibre eigenvalue degenerates")
    dm_dx = np.einsum("ajb,kb->akj", dp, xis)  # (3, K, 3)
    triple = np.einsum("kj,akj->k", m, np.cross(dm_dx, p.T[:, None, :]))
    return triple / (2.0 * h**3)


def u1_curvature(sym, x, xi):
    """Curvature of the positive eigenbundle at points of phase space.

    Equals (c/2) (*T)(xi, xi) / g(xi, xi)^{3/2} for the decoded
    geometry; homogeneous of degree -1 in xi and independent of the
    eigenvector's phase.  A base point x and covector xi give a float;
    (k, 3) arrays of them, paired row by row, give k values from one
    interpolant of the symbol.
    """
    sym = _principal(sym)
    xs, xis = _vectors3(x, "base point x"), _vectors3(xi, "covector xi")
    if xs.shape != xis.shape:
        raise InputError(f"base points {xs.shape} and covectors {xis.shape} must pair row by row")
    interp = TrigInterpolant(sym.p)
    vals = np.array([_monopole_curvature(interp(pt), interp.gradient(pt), cov)[0]
                     for pt, cov in zip(np.atleast_2d(xs), np.atleast_2d(xis))])
    return float(vals[0]) if xs.ndim == 1 else vals


# ---------------------------------------------------------------------------
# coefficient densities
# ---------------------------------------------------------------------------

def _weyl_b(metric: MetricField, asub=None, tor=None) -> np.ndarray:
    """Closed form (3 c *T_ax - 2 tr A_sub) sqrt(det g) / (8 pi^2) of b.

    Leaving out the torsion gives b1, leaving out A_sub gives b2.
    """
    axial = 0.0 if tor is None else 3.0 * tor.charge * tor.axial_dual
    trace = 0.0 if asub is None else (asub[..., 0, 0] + asub[..., 1, 1]).real
    return (axial - 2.0 * trace) * metric.vol / (8.0 * np.pi**2)


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
        g = _transposed(comps) @ comps  # g^{ab} = p_j^a p_j^b at this point only
        tr_a = np.trace(amat).real
        tr_as = 2.0 * pauli_components(amat - 0.5 * tr_a * np.eye(2))  # tr(A_sub s^j)

        def integrand(xis):
            h = np.sqrt(np.einsum("ka,ab,kb->k", xis, g, xis))
            tr_am = xis @ (tr_as @ comps)  # tr(A_sub sigma(xi)) with sigma(xi) = s^j p_j^a xi_a
            return -3.0 * (tr_am + h * tr_a) / (2.0 * h)

        out[i] = fiber_ball_quadrature(g, integrand)
    return out


def _symbol_jets(sym: PrincipalSymbolField, points: list) -> tuple:
    """p and its coordinate gradient at grid points, from one interpolant of p.

    Returns p[k, j, a] and dp[k, mu, j, a], mu the direction: one value
    and one gradient evaluation per point, the gradient being the
    spectral derivative of the samples there.  No grid field is built.
    """
    n = sym.chart.n
    interp = TrigInterpolant(sym.p)
    jets = np.empty((len(points), 4, 3, 3))  # the value, then the three derivatives
    for row, pt in enumerate(points):
        x = TWO_PI * np.array(pt, dtype=float) / n
        jets[row, 0], jets[row, 1:] = interp(x), interp.gradient(x)
    return jets[:, 0], jets[:, 1:]


def _torsion_at(sym: PrincipalSymbolField, points: list) -> tuple:
    """(*T)^a_b, g^{ab} and the charge at grid points, in closed 3x3 algebra per point.

    From the frame e = p and its gradient (_symbol_jets): the coframe
    c = e^{-T} from cofactors, gated on c e^T = I to 1e-10 as in
    geometry.coframe; d c = -c (d e)^T c; the curls (d c^j)_{h+1, h+2};
    *T = e^T (curl c) g_cov / vol; and the charge sign(det p).  No grid
    field is built, and geometry.torsion, which differentiates the
    sampled coframe rather than the interpolated frame, is not called.
    """
    e, de = _symbol_jets(sym, points)
    cof = np.cross(e[:, [1, 2, 0]], e[:, [2, 0, 1]])  # row j: e_{j+1} x e_{j+2}
    det = np.einsum("ka,ka->k", e[:, 0], cof[:, 0])
    c = cof / det[:, None, None]  # c^k_b = (e^{-T})_{kb}
    e_t = _transposed(e)
    gate("frame/coframe duality violated", c @ e_t - np.eye(3), 1e-10)
    dc = -c[:, None] @ _transposed(de) @ c[:, None]  # d_mu c^j_b as [k, mu, j, b]
    dc = dc.transpose(0, 2, 1, 3)  # [k, j, mu, b]
    curl = dc[:, :, [1, 2, 0], [2, 0, 1]] - dc[:, :, [2, 0, 1], [1, 2, 0]]
    star = e_t @ (curl @ (_transposed(c) @ c))  # g_cov = c^T c
    star *= np.abs(det)[:, None, None]  # 1/vol = |det e|
    return star, e_t @ e, np.sign(det)


def b2_density_fiber_torsion(sym, points) -> np.ndarray:
    """Fibre quadrature of (9c/4) (*T)(xi, xi)/g(xi, xi) at grid points.

    *T, g and c are evaluated at the points alone (_torsion_at).
    """
    sym = _principal(sym)
    star, g, charge = _torsion_at(sym, _grid_points(points, sym.chart.n))
    tmat = star @ g  # (*T)^a_c g^{cb}
    out = np.empty(len(g))
    for i in range(len(g)):

        def integrand(xis):
            num = np.einsum("ka,ab,kb->k", xis, tmat[i], xis)
            den = np.einsum("ka,ab,kb->k", xis, g[i], xis)
            return 2.25 * charge[i] * num / den

        out[i] = fiber_ball_quadrature(g[i], integrand)
    return out


def b2_density_fiber_curvature(sym, points) -> np.ndarray:
    """Fibre quadrature of (9/2) h+ times the eigenbundle curvature.

    The curvature is the closed monopole form of _monopole_curvature,
    read from one interpolant value and gradient of p per point
    (_symbol_jets).  The integrand equals (9c/4) (*T)(xi, xi) on the unit
    cosphere, a quadratic form, so the cosphere rule is exact for it.
    """
    sym = _principal(sym)
    points = _grid_points(points, sym.chart.n)
    comps, grads = _symbol_jets(sym, points)
    g = _transposed(comps) @ comps
    out = np.empty(len(points))
    for i in range(len(points)):

        def integrand(xis):
            h = np.sqrt(np.einsum("ka,ab,kb->k", xis, g[i], xis))
            return 4.5 * h * _monopole_curvature(comps[i], grads[i], xis)

        out[i] = fiber_ball_quadrature(g[i], integrand)
    return out


@dataclass(eq=False)
class AsymptoticCoefficients:
    """Weyl densities and their torus integrals for one operator.

    a = sqrt(det g)/(6 pi^2); b1 = -(tr A_sub) sqrt(det g)/(4 pi^2) is
    the subprincipal part of b and b2 = 3c (*T_ax) sqrt(det g)/(8 pi^2)
    its torsion part.
    """

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
    tor = torsion(decode_frame(op.sigma), metric)  # before A_sub, which its peak need not hold
    return _coefficients(metric, subprincipal_symbol(op), tor)


def _coefficients(metric: MetricField, asub: np.ndarray, tor) -> AsymptoticCoefficients:
    """The densities from an already decoded metric, subprincipal symbol and torsion."""
    a = metric.vol / (6.0 * np.pi**2)
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
