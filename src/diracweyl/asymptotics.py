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
curvature of the positive eigenbundle (computed from gauge-anchored
eigenvector derivatives).  Route agreement is what the test-suite and
the acceptance gate lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError
from .fields import (
    TWO_PI,
    fiber_ball_quadrature,
    grid_integral,
    sphere_design_14,
)
from .geometry import (
    MetricField,
    PrincipalSymbolField,
    _metric_from_sigma,
    decode_frame,
    decode_metric,
    pauli_components,
    torsion,
)
from .operators import FirstOrderOperator, subprincipal_symbol

_ANCHOR_FLOOR = 1e-3
_FD_STEP = 1e-4

_CONJ = np.array([[0.0, -1.0], [1.0, 0.0]])


def _principal(obj) -> PrincipalSymbolField:
    if isinstance(obj, FirstOrderOperator):
        return obj.sigma
    if isinstance(obj, PrincipalSymbolField):
        return obj
    raise InputError(f"expected a symbol or operator, got {type(obj).__name__}")


# ---------------------------------------------------------------------------
# fibre eigenvector algebra
# ---------------------------------------------------------------------------

def _bloch(smats: np.ndarray, xis: np.ndarray):
    """Pauli components and eigenvalue of M(xi) = sigma^a xi_a.

    smats: (3, 2, 2) symbol matrices at one point; xis: (K, 3).
    Returns (m, h) with m of shape (K, 3), h = |m| > 0.
    """
    m = pauli_components(np.tensordot(xis, smats, axes=(1, 0)))  # (K, 3)
    h = np.sqrt((m**2).sum(axis=1))
    if np.any(h < 1e-12):
        raise InputError("covector is (numerically) zero; the fibre eigenvalue degenerates")
    return m, h


def _anchored_vector(m: np.ndarray, h: np.ndarray, anchors: np.ndarray):
    """Positive-eigenvalue eigenvector with the anchored phase convention.

    anchors[k] in {0, 1} names the component kept real positive.
    Returns (v, anchor_modulus).
    """
    k = len(h)
    v = np.empty((k, 2), dtype=complex)
    a0 = anchors == 0
    a1 = ~a0
    if np.any(a0):
        hh, mm = h[a0], m[a0]
        norm = np.sqrt(2.0 * hh * (hh + mm[:, 2]))
        v[a0, 0] = (hh + mm[:, 2]) / norm
        v[a0, 1] = (mm[:, 0] + 1j * mm[:, 1]) / norm
    if np.any(a1):
        hh, mm = h[a1], m[a1]
        norm = np.sqrt(2.0 * hh * (hh - mm[:, 2]))
        v[a1, 0] = (mm[:, 0] - 1j * mm[:, 1]) / norm
        v[a1, 1] = (hh - mm[:, 2]) / norm
    mod = np.abs(v[np.arange(k), anchors])
    return v, mod


class _FiberFrame:
    """Eigenvector derivatives of the positive fibre band at a fixed base point.

    Evaluates the symbol at the base point and at the twelve shifted
    points needed for Richardson-extrapolated central differences in x;
    covector derivatives come from exact first-order perturbation of
    the 2x2 eigenproblem.  The eigenvector phase is anchored: the
    larger-modulus component at the base point is kept real positive,
    switching anchor automatically if it degenerates along the way.
    """

    def __init__(self, sym: PrincipalSymbolField, x: np.ndarray, fd_step: float = _FD_STEP):
        interp = sym.interpolant()
        x = np.asarray(x, dtype=float)
        if x.shape != (3,):
            raise InputError("base point must be a 3-vector")
        self.fd_step = fd_step
        self.s_center = np.asarray(interp(x))
        self.s_shift = {}
        for a in range(3):
            unit = np.zeros(3)
            unit[a] = 1.0
            for step in (fd_step, -fd_step, 0.5 * fd_step, -0.5 * fd_step):
                self.s_shift[(a, step)] = np.asarray(interp(x + step * unit))

    def _vectors_for_anchor(self, xis, anchors):
        """v at the centre and all shifted evaluations; worst anchor modulus."""
        m, h = _bloch(self.s_center, xis)
        v, mod = _anchored_vector(m, h, anchors)
        worst = mod.copy()
        shifted = {}
        for key, smats in self.s_shift.items():
            ms, hs = _bloch(smats, xis)
            vs, mods = _anchored_vector(ms, hs, anchors)
            worst = np.minimum(worst, mods)
            shifted[key] = vs
        return m, h, v, shifted, worst

    def eval(self, xis: np.ndarray):
        """Return (m, h, v, dv_dx, dv_dxi) for a batch of covectors.

        dv_dx and dv_dxi have shape (3, K, 2); the leading index is the
        coordinate/covector slot.
        """
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        anchors = np.zeros(len(xis), dtype=int)
        m0, _ = _bloch(self.s_center, xis)
        anchors[m0[:, 2] < 0.0] = 1
        m, h, v, shifted, worst = self._vectors_for_anchor(xis, anchors)
        bad = worst < _ANCHOR_FLOOR
        if np.any(bad):
            anchors2 = anchors.copy()
            anchors2[bad] = 1 - anchors2[bad]
            m2, h2, v2, shifted2, worst2 = self._vectors_for_anchor(xis, anchors2)
            if np.any(worst2[bad] < _ANCHOR_FLOOR):
                raise ConsistencyError(
                    "both eigenvector anchors degenerate near the sample point"
                )
            anchors = anchors2
            m, h, v = m2, h2, v2
            shifted = shifted2

        step = self.fd_step
        dv_dx = np.empty((3, len(xis), 2), dtype=complex)
        for a in range(3):
            d_full = (shifted[(a, step)] - shifted[(a, -step)]) / (2.0 * step)
            d_half = (shifted[(a, 0.5 * step)] - shifted[(a, -0.5 * step)]) / step
            dv_dx[a] = (4.0 * d_half - d_full) / 3.0

        # Covector derivatives: exact rank-one perturbation plus the
        # phase correction that keeps the anchored component real.
        v_minus = np.einsum("pq,kq->kp", _CONJ, np.conj(v))
        idx = np.arange(len(xis))
        dv_dxi = np.empty((3, len(xis), 2), dtype=complex)
        for a in range(3):
            sa = self.s_center[a]
            coef = np.einsum("kp,pq,kq->k", np.conj(v_minus), sa, v) / (2.0 * h)
            delta = coef[:, None] * v_minus
            gamma = -delta[idx, anchors].imag / v[idx, anchors].real
            dv_dxi[a] = delta + 1j * gamma[:, None] * v
        return m, h, v, dv_dx, dv_dxi


@dataclass(eq=False)
class EigenpairOnFiber:
    """Positive-band eigendata of the symbol at one (x, xi)."""

    h_plus: float
    v_plus: np.ndarray
    projector: np.ndarray


def fiber_eigenpair(sym, x, xi) -> EigenpairOnFiber:
    """Positive eigenvalue, anchored eigenvector and spectral projector."""
    sym = _principal(sym)
    interp = sym.interpolant()
    smats = np.asarray(interp(np.asarray(x, dtype=float)))
    xis = np.atleast_2d(np.asarray(xi, dtype=float))
    m, h = _bloch(smats, xis)
    anchors = np.zeros(len(xis), dtype=int)
    anchors[m[:, 2] < 0.0] = 1
    v, _ = _anchored_vector(m, h, anchors)
    proj = v[0][:, None] * np.conj(v[0])[None, :]
    mat = np.tensordot(xis[0], smats, axes=(0, 0))
    res = float(np.abs(mat @ v[0] - h[0] * v[0]).max())
    if res > 1e-10 * max(1.0, h[0]):
        raise ConsistencyError(f"fibre eigenpair residual {res:.2e}")
    return EigenpairOnFiber(h_plus=float(h[0]), v_plus=v[0], projector=proj)


def u1_curvature_batch(sym, x, xis, fd_step: float = _FD_STEP) -> np.ndarray:
    """-i {v+*, v+} for a batch of covectors at one base point."""
    sym = _principal(sym)
    fib = _FiberFrame(sym, np.asarray(x, dtype=float), fd_step)
    _, _, _, dv_dx, dv_dxi = fib.eval(xis)
    s = np.einsum("akp,akp->k", np.conj(dv_dx), dv_dxi)
    curv = -1j * (s - np.conj(s))
    if float(np.abs(curv.imag).max()) > 1e-9:
        raise ConsistencyError("curvature came out non-real; gauge anchoring failed")
    return curv.real


def u1_curvature(sym, x, xi, fd_step: float = _FD_STEP) -> float:
    """Curvature of the positive eigenbundle at one point of phase space.

    Equals (c/2) (*T)(xi, xi) / g(xi, xi)^{3/2} for the decoded
    geometry; homogeneous of degree -1 in xi and independent of the
    anchoring gauge.
    """
    return float(u1_curvature_batch(sym, x, np.atleast_2d(xi), fd_step)[0])


@dataclass
class PoissonCheckResult:
    """Worst-case residuals of the generalised-bracket identities."""

    rewrite_residual: float
    projector_residual: float
    conjugate_sum_residual: float
    n_samples: int


def generalized_poisson_check(
    sym, n_samples: int = 20, seed: int = 0, fd_step: float = _FD_STEP
) -> PoissonCheckResult:
    """Sample the bracket identities behind the curvature form of b2.

    At seeded random (x, xi): the bracket with the shifted principal
    symbol rewrites as -3 h+ times the plain curvature bracket (the
    projector drops out), and the curvatures of the two eigenbundles
    cancel.  Returns worst-case residuals over the samples.
    """
    sym = _principal(sym)
    rng = np.random.default_rng(seed)
    worst_rewrite = 0.0
    worst_proj = 0.0
    worst_sum = 0.0
    for _ in range(n_samples):
        x = rng.uniform(0.0, TWO_PI, size=3)
        xi = rng.normal(size=3)
        xi *= rng.uniform(0.5, 2.0) / np.linalg.norm(xi)
        fib = _FiberFrame(sym, x, fd_step)
        m, h, v, dv_dx, dv_dxi = fib.eval(xi[None, :])
        h0, v0 = h[0], v[0]
        dx = dv_dx[:, 0, :]
        dxi = dv_dxi[:, 0, :]
        mat = np.tensordot(xi, fib.s_center, axes=(0, 0))

        def bracket(q):
            left = np.einsum("ap,pq,aq->", np.conj(dx), q, dxi)
            right = np.einsum("ap,pq,aq->", np.conj(dxi), q, dx)
            return left - right

        eye = np.eye(2)
        plain = bracket(eye)
        lhs = 1.5j * bracket(mat - 2.0 * h0 * eye)
        rhs = -4.5j * h0 * plain
        worst_rewrite = max(worst_rewrite, float(abs(lhs - rhs)))

        proj = v0[:, None] * np.conj(v0)[None, :]
        worst_proj = max(worst_proj, float(abs(bracket(proj))))

        dx_m = np.einsum("pq,aq->ap", _CONJ, np.conj(dx))
        dxi_m = np.einsum("pq,aq->ap", _CONJ, np.conj(dxi))
        plain_minus = np.einsum("ap,ap->", np.conj(dx_m), dxi_m) - np.einsum(
            "ap,ap->", np.conj(dxi_m), dx_m
        )
        worst_sum = max(worst_sum, float(abs(plain + plain_minus)))
    return PoissonCheckResult(
        rewrite_residual=worst_rewrite,
        projector_residual=worst_proj,
        conjugate_sum_residual=worst_sum,
        n_samples=n_samples,
    )


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


def b1_density_fiber(op: FirstOrderOperator, points) -> np.ndarray:
    """Fibre-quadrature route to b1 at selected grid points.

    Integrates -3 tr(A_sub P+) over the unit covector ball; agrees with
    the closed form within 1e-7.
    """
    asub = subprincipal_symbol(op)
    s = op.sigma.sigma
    out = np.empty(len(points))
    for i, p in enumerate(points):
        p = tuple(int(j) for j in p)
        smats = s[p]
        amat = asub[p]
        g = _metric_from_sigma(smats)

        def integrand(xis):
            m_mat = np.tensordot(xis, smats, axes=(1, 0))
            gxx = np.einsum("ka,ab,kb->k", xis, g, xis)
            h = np.sqrt(gxx)
            tr_am = np.einsum("pq,kqp->k", amat, m_mat).real
            tr_a = np.trace(amat).real
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
    frame = decode_frame(sym)
    metric = decode_metric(sym)
    tor = torsion(frame, metric)
    star_up = np.einsum("...ac,...cb->...ab", tor.star_T, metric.g_contra)
    out = np.empty(len(points))
    for i, p in enumerate(points):
        p = tuple(int(j) for j in p)
        tmat = star_up[p]
        g = metric.g_contra[p]

        def integrand(xis):
            num = np.einsum("ka,ab,kb->k", xis, tmat, xis)
            den = np.einsum("ka,ab,kb->k", xis, g, xis)
            return 2.25 * tor.charge * num / den

        out[i] = fiber_ball_quadrature(g, integrand)
    return out


def b2_density_fiber_curvature(
    sym, points, n_radial: int = 16, fd_step: float = _FD_STEP
) -> np.ndarray:
    """Fibre quadrature of (9/2) h+ times the eigenbundle curvature.

    The heaviest route: eigenvector derivatives at every quadrature
    node.  Uses the 14-point degree-5 spherical rule with 16 radial
    nodes, which is exact for the quadratic-over-quadratic angular
    profile the curvature takes here.
    """
    sym = _principal(sym)
    chart = sym.chart
    rule = sphere_design_14()
    out = np.empty(len(points))
    for i, p in enumerate(points):
        p = tuple(int(j) for j in p)
        x = TWO_PI * np.array(p, dtype=float) / chart.n
        fib = _FiberFrame(sym, x, fd_step)
        g = _metric_from_sigma(sym.sigma[p])

        def integrand(xis):
            m, h, v, dv_dx, dv_dxi = fib.eval(xis)
            s = np.einsum("akp,akp->k", np.conj(dv_dx), dv_dxi)
            curv = (-1j * (s - np.conj(s))).real
            return 4.5 * h * curv

        out[i] = fiber_ball_quadrature(g, integrand, n_radial=n_radial, rule=rule)
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
        gap = float(np.abs(self.b - (self.b1 + self.b2)).max())
        scale = max(1.0, float(np.abs(self.b).max()))
        if gap > 1e-12 * scale:
            raise ConsistencyError(f"b decomposition violated by {gap:.2e}")


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
