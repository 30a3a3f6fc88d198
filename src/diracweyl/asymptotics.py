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
its x- and xi-derivatives.  The fibre routes read p and its spectral
x-derivative off the grid lines through their points alone: no
interpolant, no whole-grid transform, no eigenvector and no finite
differences.  Route agreement is what the test-suite and the acceptance
gate lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, expect_type, gate
from .fields import _grid_line_jets, _transposed, fiber_ball_quadrature, grid_integral
from .geometry import FrameField, PrincipalSymbolField, decode_metric, pauli_components, torsion
from .operators import FirstOrderOperator, _subprincipal


def _principal(obj) -> PrincipalSymbolField:
    if isinstance(obj, FirstOrderOperator):
        return obj.sigma
    if isinstance(obj, PrincipalSymbolField):
        return obj
    raise InputError(f"expected a symbol or operator, got {type(obj).__name__}")


# ---------------------------------------------------------------------------
# eigenbundle curvature
# ---------------------------------------------------------------------------

def _monopole_curvature(p: np.ndarray, dp: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """-i {v+*, v+} of the positive eigenbundle at base points, for covectors at each.

    p: (..., 3, 3) symbol components p_j^a at the base points; dp:
    (..., 3, 3, 3) their coordinate gradient, the direction on the axis
    after the points'; xis: (..., K, 3).  Returns (..., K).  The symbol
    sigma(xi) = s^j m_j with m = p xi is trace-free, so the curvature is
    the spin-1/2 monopole form

        sum_a m . (d_{x^a} m x d_{xi_a} m) / (2 |m|^3),

    with d_{x^a} m = (d_a p) xi and d_{xi_a} m = p[:, a]; no eigenvector
    is needed.
    """
    m = np.einsum("...ja,...ka->...kj", p, xis)
    h = np.sqrt((m**2).sum(axis=-1))
    if np.any(h < 1e-12):
        raise InputError("covector is (numerically) zero; the fibre eigenvalue degenerates")
    dm_dx = np.einsum("...ajb,...kb->...akj", dp, xis)  # (..., 3, K, 3)
    dm_dxi = _transposed(p)[..., :, None, :]  # (..., 3, 1, 3): row a is p[:, a]
    triple = np.einsum("...kj,...akj->...k", m, np.cross(dm_dx, dm_dxi))
    return triple / (2.0 * h**3)


def u1_curvature(sym, points, xi) -> np.ndarray:
    """Curvature of the positive eigenbundle at grid points of phase space.

    Equals (c/2) (*T)(xi, xi) / g(xi, xi)^{3/2} for the decoded
    geometry; homogeneous of degree -1 in xi and independent of the
    eigenvector's phase.  points are (k, 3) grid indices, as for the fibre
    routes, and xi a (k, 3) array of covectors paired with them row by
    row; the k values take one read of p and its spectral gradient off the
    grid lines through the points (fields._grid_line_jets).
    """
    sym = _principal(sym)
    _refuse_bools(xi, "covector xi")
    pts, xis = _grid_points(points, sym.chart.n), np.asarray(xi, dtype=float)
    if xis.shape != pts.shape:
        raise InputError(f"covector xi must be a {pts.shape} array, paired row by row with the "
                         f"points, got shape {xis.shape}")
    if not np.isfinite(xis).all():
        raise InputError("covector xi has non-finite entries")
    comps, grads = _grid_line_jets(sym.p, pts)
    return _monopole_curvature(comps, grads, xis[:, None, :])[:, 0]


def _quadratic(xis: np.ndarray, m: np.ndarray) -> np.ndarray:
    """xi . m xi for covectors xis (..., K, 3) and forms m (..., 3, 3), shape (..., K)."""
    return np.einsum("...ka,...ab,...kb->...k", xis, m, xis)


# ---------------------------------------------------------------------------
# coefficient densities
# ---------------------------------------------------------------------------

def _refuse_bools(values, name: str):
    """Refuse, with InputError naming the argument, values that hold a Python or numpy bool
    anywhere: numpy would read it as 0 or 1."""
    if any(isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat):
        raise InputError(f"{name} must hold numbers, not bools, got {values!r}")


def _grid_points(points, n: int) -> np.ndarray:
    """A (k, 3) array of integer grid indices in [0, n), as int64.

    A bool entry is refused by name; anything else raises InputError
    naming the first bad row.
    """
    _refuse_bools(points, "points")
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
    return arr.astype(np.int64)


def b1_density_fiber(op: FirstOrderOperator, points) -> np.ndarray:
    """Fibre-quadrature route to b1 at selected grid points.

    Integrates -3 tr(A_sub P+), A_sub = a0 + (i/2) s^j d_a p_j^a formed at
    the points alone, over the unit covector ball; agrees with the closed
    form within 1e-7.
    """
    expect_type(op, FirstOrderOperator, "op")
    pts = _grid_points(points, op.sigma.chart.n)
    comps, grads = _grid_line_jets(op.sigma.p, pts)
    half_div = 0.5 * sum(grads[:, a, :, a] for a in range(3)).T  # sum_a d_a p_j^a / 2 as [j, k]
    amat = np.moveaxis(_subprincipal(op.a0[tuple(pts.T)], half_div), (0, 1), (-2, -1))
    g = _transposed(comps) @ comps  # g^{ab} = p_j^a p_j^b at these points only
    tr_a = (amat[:, 0, 0] + amat[:, 1, 1]).real[:, None]
    tr_as = 2.0 * pauli_components(amat - 0.5 * tr_a[..., None] * np.eye(2))  # tr(A_sub s^j)
    tr_ap = np.einsum("kj,kja->ka", tr_as, comps)  # tr(A_sub sigma(xi)) = tr_ap . xi

    def integrand(xis):
        h = np.sqrt(_quadratic(xis, g))
        return -3.0 * (np.einsum("kna,ka->kn", xis, tr_ap) + h * tr_a) / (2.0 * h)

    return fiber_ball_quadrature(g, integrand)


def _torsion_at(sym: PrincipalSymbolField, points) -> tuple:
    """(*T)^a_b, g^{ab} and the charge at grid points, in closed 3x3 algebra.

    From the frame e = p and its spectral gradient at the points
    (fields._grid_line_jets): the coframe c = e^{-T} from cofactors,
    gated on c e^T = I to 1e-10 as in geometry.coframe; d c = -c (d e)^T c;
    the curls (d c^j)_{h+1, h+2}; *T = e^T (curl c) g_cov / vol; and the
    charge sign(det p).  No grid field is built, and geometry.torsion,
    which differentiates the sampled coframe, not the frame, is not called.
    """
    e, de = _grid_line_jets(sym.p, points)
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
    return fiber_ball_quadrature(
        g, lambda xis: 2.25 * charge[:, None] * _quadratic(xis, tmat) / _quadratic(xis, g))


def b2_density_fiber_curvature(sym, points) -> np.ndarray:
    """Fibre quadrature of (9/2) h+ times the eigenbundle curvature.

    The curvature is the closed monopole form of _monopole_curvature, read
    from p and its spectral gradient at the points (fields._grid_line_jets).
    The integrand equals (9c/4) (*T)(xi, xi) on the unit cosphere, a
    quadratic form, so the cosphere rule is exact for it.
    """
    sym = _principal(sym)
    comps, grads = _grid_line_jets(sym.p, _grid_points(points, sym.chart.n))
    g = _transposed(comps) @ comps
    return fiber_ball_quadrature(
        g, lambda xis: 4.5 * np.sqrt(_quadratic(xis, g)) * _monopole_curvature(comps, grads, xis))


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

    b is assembled from the closed form (3 c *T_ax - 2 tr A_sub)
    sqrt(det g)/(8 pi^2), with tr A_sub = tr a0, and must coincide with
    b1 + b2 to rounding.  The metric and the torsion are those a caller
    still holds for the symbol (decode_metric, torsion), as for
    check_dirac; no divergence of p is taken, and every density is new.
    """
    expect_type(op, FirstOrderOperator, "op")
    metric = decode_metric(op.sigma)
    tor = torsion(FrameField(op.sigma.p), metric)
    vol, c_tax = metric.vol, tor.charge * tor.axial_dual
    trace = op.a0[..., 0, 0].real + op.a0[..., 1, 1].real
    a, b = vol / (6.0 * np.pi**2), (3.0 * c_tax - 2.0 * trace) * vol / (8.0 * np.pi**2)
    return AsymptoticCoefficients(a=a, b1=-2.0 * trace * vol / (8.0 * np.pi**2),
                                  b2=3.0 * c_tax * vol / (8.0 * np.pi**2), b=b,
                                  a_global=float(grid_integral(a)), b_global=float(grid_integral(b)),
                                  charge=tor.charge)
