"""Geometry encoded in 2x2 elliptic principal symbols on the 3-torus.

A trace-free Hermitian symbol that is linear in the covector determines,
pointwise, an orthonormal frame, a Riemannian metric, an orientation
sign, and a metric-compatible flat connection whose torsion carries all
the remaining local information.  This module decodes those objects
from grid samples of the symbol and provides the associated tensor
calculus (connection coefficients, torsion in several equivalent
computational routes, Hodge duality).

Index conventions: frames are stored as e[..., j, alpha] with j the
orthonormal-leg label and alpha the coordinate index (vectors);
coframes as c[..., k, beta] (covectors).  Torsion T[..., a, b, c]
means T^a_{bc}; the dual torsion star_T[..., a, b] means (*T)^a_b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, EllipticityError, InputError
from .fields import (
    TrigInterpolant,
    chart_of,
    derivative_stack,
    hermitian_residual,
)

# Standard Pauli matrices; the fixed fibre basis for all 2x2 symbols.
PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# Totally antisymmetric symbol, eps[0,1,2] = +1.
EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)]:
    EPSILON[_i, _j, _k] = _s

_FRAME_CONDITION_LIMIT = 1e8


def _adjugate3(m: np.ndarray) -> np.ndarray:
    """Adjugate of a (..., 3, 3) stack in closed form: adj(m) @ m = det(m) I."""
    adj = np.empty_like(m)
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[..., j, i] = m[..., i1, j1] * m[..., i2, j2] - m[..., i1, j2] * m[..., i2, j1]
    return adj


def _det3(m: np.ndarray) -> np.ndarray:
    """Determinant of a (..., 3, 3) stack as the triple product of its rows."""
    return (m[..., 0, :] * np.cross(m[..., 1, :], m[..., 2, :])).sum(axis=-1)


class PrincipalSymbolField:
    """Symbol sigma^alpha = s^j p_j^alpha, held as the read-only real array p[..., j, alpha].

    p has the layout of FrameField.e.  PrincipalSymbolField(sigma) gates
    the complex stack sigma[..., alpha, :, :] on Hermitian and trace-free
    matrices and reads p off it; symbol_from_frame sets p directly.  Both
    check ellipticity.  The sigma property rebuilds the complex stack on
    each access and keeps nothing.
    """

    def __init__(self, sigma: np.ndarray):
        s = np.asarray(sigma, dtype=complex)
        if s.ndim != 6 or s.shape[3:] != (3, 2, 2):
            raise InputError(f"symbol field must have shape (n, n, n, 3, 2, 2), got {s.shape}")
        chart_of(s)
        scale = max(1.0, float(np.abs(s).max()))
        if hermitian_residual(s) > 1e-13 * scale:
            raise InputError("symbol matrices must be Hermitian")
        if float(np.abs(s[..., 0, 0] + s[..., 1, 1]).max()) > 1e-13 * scale:
            raise InputError("symbol matrices must be trace-free")
        self._hold(np.swapaxes(pauli_components(s), -1, -2).copy())

    def _hold(self, p: np.ndarray):
        """Take ownership of the component array p and check ellipticity."""
        _check_ellipticity(np.swapaxes(p, -1, -2) @ p)
        p.flags.writeable = False
        self.p = p
        self._interp = None

    @property
    def sigma(self) -> np.ndarray:
        """The complex (n, n, n, 3, 2, 2) stack s^j p_j^alpha, built on each access."""
        return pauli_matrices(np.swapaxes(self.p, -1, -2))

    @property
    def chart(self):
        return chart_of(self.p)

    def interpolant(self) -> TrigInterpolant:
        """Band-limited evaluator of p for off-grid points (cached)."""
        if self._interp is None:
            self._interp = TrigInterpolant(self.p)
        return self._interp

    def at(self, point: np.ndarray) -> np.ndarray:
        """The three symbol matrices at an arbitrary point, shape (3, 2, 2)."""
        return pauli_matrices(np.swapaxes(self.interpolant()(point), -1, -2))


@dataclass(eq=False)
class FrameField:
    """Orthonormal frame samples e[..., j, alpha] (rows = legs)."""

    e: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.e, dtype=float)
        if e.ndim != 5 or e.shape[3:] != (3, 3):
            raise InputError(f"frame field must have shape (n, n, n, 3, 3), got {e.shape}")
        chart_of(e)
        if not np.all(np.isfinite(e)):
            raise InputError("frame field contains non-finite entries")
        self.e = e

    @property
    def chart(self):
        return chart_of(self.e)

    def orientation(self) -> int:
        """Sign of det e, checked to be uniform across the grid."""
        d = _det3(self.e)
        if np.any(np.abs(d) < 1e-14):
            idx = tuple(int(i) for i in np.unravel_index(np.argmin(np.abs(d)), d.shape))
            raise EllipticityError(f"frame degenerates at grid point {idx}")
        signs = np.sign(d)
        if signs.min() != signs.max():
            raise ConsistencyError("frame orientation changes sign across the grid")
        return int(signs.flat[0])


@dataclass(eq=False)
class MetricField:
    """Contravariant/covariant metric samples plus the Riemannian density."""

    g_contra: np.ndarray
    g_cov: np.ndarray = field(init=False)
    vol: np.ndarray = field(init=False)  # sqrt(det g_cov)

    def __post_init__(self):
        g = np.asarray(self.g_contra, dtype=float)
        if g.ndim != 5 or g.shape[3:] != (3, 3):
            raise InputError(f"metric field must have shape (n, n, n, 3, 3), got {g.shape}")
        if float(np.abs(g - np.swapaxes(g, -1, -2)).max()) > 1e-12:
            raise InputError("metric must be symmetric")
        _check_ellipticity(g)
        self._complete(g)

    def _complete(self, g: np.ndarray):
        """Hold g and fill g_cov = adj(g)/det(g) and vol = 1/sqrt(det g)."""
        self.g_contra = g
        adj = _adjugate3(g)
        det = (g[..., 0, :] * adj[..., :, 0]).sum(axis=-1)  # first row against its cofactors
        self.g_cov = adj / det[..., None, None]
        self.vol = 1.0 / np.sqrt(det)


@dataclass(eq=False)
class TorsionBundle:
    """Torsion of the frame connection and its duals.

    T[..., a, b, c] = T^a_{bc}; star_T[..., a, b] = (*T)^a_b;
    axial_dual is the scalar *T_ax = (1/3) (*T)^g_g; charge is the
    orientation sign of the generating frame.  route_residuals records
    the largest disagreement between the independent computation routes
    that were cross-checked while building the bundle.
    """

    T: np.ndarray
    star_T: np.ndarray
    axial_dual: np.ndarray
    charge: int
    route_residuals: dict = field(default_factory=dict)


def _check_ellipticity(g_contra: np.ndarray):
    w = np.linalg.eigvalsh(g_contra)
    if np.any(w[..., 0] <= 0.0):
        idx = tuple(int(i) for i in np.unravel_index(np.argmin(w[..., 0]), w[..., 0].shape))
        raise EllipticityError(f"symbol fails ellipticity at grid point {idx}")
    cond = np.sqrt(float((w[..., 2] / w[..., 0]).max()))
    if cond > _FRAME_CONDITION_LIMIT:
        raise EllipticityError(
            f"frame condition number {cond:.3e} exceeds limit {_FRAME_CONDITION_LIMIT:.0e}"
        )


def pauli_components(m: np.ndarray) -> np.ndarray:
    """Components (m_1, m_2, m_3) of traceless Hermitian m = m_j s^j, on a (..., 2, 2) stack."""
    return np.stack([m[..., 0, 1].real, -m[..., 0, 1].imag, m[..., 0, 0].real], axis=-1)


def pauli_matrices(c: np.ndarray) -> np.ndarray:
    """s^j c[..., j] for real components c, as a complex (..., 2, 2) stack.

    The inverse of pauli_components, written entry by entry from the
    real components without a complex copy of them.
    """
    out = np.empty(c.shape[:-1] + (2, 2), dtype=complex)
    re, im = out.real, out.imag
    re[..., 0, 0] = c[..., 2]
    np.negative(c[..., 2], out=re[..., 1, 1])
    re[..., 0, 1] = re[..., 1, 0] = c[..., 0]
    np.negative(c[..., 1], out=im[..., 0, 1])
    im[..., 1, 0] = c[..., 1]
    im[..., 0, 0] = im[..., 1, 1] = 0.0
    return out


def symbol_from_frame(frame: FrameField | np.ndarray) -> PrincipalSymbolField:
    """The symbol sigma^alpha = s^j e_j^alpha of an orthonormal frame.

    The symbol holds a copy of e as p, so the caller's array is never
    aliased.  Hermitian and trace-free hold by construction; only
    ellipticity is checked.
    """
    e = frame.e if isinstance(frame, FrameField) else FrameField(frame).e
    sym = PrincipalSymbolField.__new__(PrincipalSymbolField)
    sym._hold(e.copy())
    return sym


def decode_frame(sym: PrincipalSymbolField) -> FrameField:
    """The frame e_j^alpha = p_j^alpha the symbol holds, over its read-only array.

    Leg 1 and 2 are the real and negated imaginary parts of the
    off-diagonal symbol entry, leg 3 the upper diagonal entry; this
    inverts symbol_from_frame exactly.
    """
    fr = FrameField(sym.p)
    fr.orientation()  # force the degeneracy check
    return fr


def decode_metric(sym: PrincipalSymbolField) -> MetricField:
    """Riemannian metric g^{ab} = p_j^a p_j^b, so that det(sigma . xi) = -g(xi, xi).

    The symbol's constructor checked ellipticity on this very g, so the
    check is not repeated; a directly constructed MetricField runs it.
    """
    metric = MetricField.__new__(MetricField)
    metric._complete(np.swapaxes(sym.p, -1, -2) @ sym.p)
    return metric


def metric_from_frame(frame: FrameField) -> MetricField:
    """g^{ab} = delta^{jk} e_j^a e_k^b; equals decode_metric on the
    corresponding symbol up to rounding."""
    return MetricField(np.swapaxes(frame.e, -1, -2) @ frame.e)


def topological_charge(sym: PrincipalSymbolField) -> int:
    """Orientation invariant of the symbol, +1 or -1.

    Computed two ways and cross-checked: as the normalised fibre
    determinant -(i/2) sqrt(det g_cov) tr(s^1 s^2 s^3), and as the sign
    of the frame determinant.  Both must be constant across the grid.
    """
    frame = decode_frame(sym)
    metric = decode_metric(sym)
    trip = np.einsum("...pq,...qr,...rp->...", *np.moveaxis(sym.sigma, -3, 0))  # tr(s^1 s^2 s^3)
    fibre = -0.5j * metric.vol * trip
    c_field = fibre.real
    c_imag = float(np.abs(fibre.imag).max())
    if c_imag > 1e-10:
        raise ConsistencyError(f"charge formula gave a non-real value (imag {c_imag:.2e})")
    c0 = int(np.rint(c_field.flat[0]))
    if c0 not in (-1, 1):
        raise ConsistencyError(f"charge {c_field.flat[0]!r} is not a unit")
    if float(np.abs(c_field - c0).max()) > 1e-6:
        worst = np.unravel_index(np.argmax(np.abs(c_field - c0)), c_field.shape)
        idx = tuple(int(i) for i in worst)
        raise ConsistencyError(f"charge is not constant across the grid (worst point {idx})")
    if frame.orientation() != c0:
        raise ConsistencyError("fibre-determinant charge disagrees with frame orientation")
    return c0


def orthonormalize_frame(e: np.ndarray) -> FrameField:
    """Gram-Schmidt the frame legs in the Euclidean inner product.

    Explicitly opt-in: decoding never orthonormalises behind the
    caller's back.  Rows are processed in order 1, 2, 3.
    """
    e = np.asarray(e, dtype=float).copy()

    def dot(a, b):
        return np.einsum("...a,...a->...", a, b)

    for j in range(3):
        v = e[..., j, :]
        for k in range(j):
            v = v - dot(v, e[..., k, :])[..., None] * e[..., k, :]
        nrm = np.sqrt(dot(v, v))
        if np.any(nrm < 1e-12):
            raise EllipticityError("frame legs are linearly dependent; cannot orthonormalise")
        e[..., j, :] = v / nrm[..., None]
    return FrameField(e)


def coframe(frame: FrameField, metric: MetricField) -> np.ndarray:
    """Metric-dual coframe c[..., k, b] = c^k_b = delta^{kj} g_{bc} e_j^c, shape (n, n, n, 3, 3)."""
    c = frame.e @ np.swapaxes(metric.g_cov, -1, -2)
    gap = np.abs(frame.e @ np.swapaxes(c, -1, -2) - np.eye(3)).max()
    if gap > 1e-10:
        raise ConsistencyError(f"frame/coframe duality violated by {gap:.2e}")
    return c


def christoffel_symbols(metric: MetricField) -> np.ndarray:
    """Levi-Civita connection coefficients G[..., b, a, c] (upper, lower, lower)."""
    dg = derivative_stack(metric.g_cov)  # [..., mu, alpha, beta]
    s = dg + dg.transpose(0, 1, 2, 4, 3, 5)  # [a, c, d]
    s -= dg.transpose(0, 1, 2, 4, 5, 3)
    del dg
    half_up = 0.5 * np.swapaxes(metric.g_contra, -1, -2)  # the 1/2, where scaling by 0.5 is exact
    lowered = s.reshape(s.shape[:3] + (9, 3)) @ half_up  # [(a, c), b]
    return lowered.reshape(s.shape).transpose(0, 1, 2, 5, 3, 4)


def teleparallel_coefficients(frame: FrameField, metric: MetricField) -> np.ndarray:
    """Connection G[..., a, mu, b] = e_k^a d_mu c^k_b making the frame parallel.

    The defining property nabla_mu e_j = 0 holds by duality; the
    connection is metric compatible with vanishing curvature.
    """
    return _teleparallel(frame.e, derivative_stack(coframe(frame, metric)))


def _teleparallel(e: np.ndarray, dcof: np.ndarray) -> np.ndarray:
    return np.swapaxes(np.swapaxes(e, -1, -2)[..., None, :, :] @ dcof, -3, -2)


def torsion_from_connection(gamma: np.ndarray) -> np.ndarray:
    """T^a_{bc} as the antisymmetric part of the connection coefficients."""
    return gamma - gamma.transpose(0, 1, 2, 3, 5, 4)


def _torsion_from_coframe(e: np.ndarray, dform: np.ndarray) -> np.ndarray:
    """T^a_{bc} = e_j^a (d_b c^j_c - d_c c^j_b), bypassing the connection."""
    rows = np.swapaxes(e, -1, -2) @ dform.reshape(dform.shape[:-2] + (9,))
    return rows.reshape(dform.shape)


def _dual_2forms(metric: MetricField, forms: np.ndarray) -> np.ndarray:
    """(1/2) sqrt(det g) eps_{efb} g^{ec} g^{fd} w_{cd} for a stack of 2-forms w[..., k, c, d].

    By eps_{efb} g^{ec} g^{fd} = det(g^{..}) eps^{cdh} g_{hb} this is
    (curl w)_h g_{hb} / (2 vol) with vol = sqrt(det g_{..}): one 3x3
    matvec per form.
    """
    curl = np.stack(
        [forms[..., 1, 2] - forms[..., 2, 1],
         forms[..., 2, 0] - forms[..., 0, 2],
         forms[..., 0, 1] - forms[..., 1, 0]],
        axis=-1,
    )
    return (curl @ metric.g_cov) / (2.0 * metric.vol)[..., None, None]


def _star_torsion_from_curl(e: np.ndarray, metric: MetricField, dform: np.ndarray) -> np.ndarray:
    """(*T)^a_b as sum_j e_j (x) curl c^j, with the metric curl of a covector."""
    return np.swapaxes(e, -1, -2) @ _dual_2forms(metric, dform)


def _axial_dual_from_coframe(metric: MetricField, cof: np.ndarray, dcof: np.ndarray) -> np.ndarray:
    """Scalar dual of the axial torsion part, directly from coframe derivatives.

    *T_ax = (1/3) sqrt(det g_contra) * eps^{bmc} sum_k c^k_b d_mu c^k_c
    written out; an independent check on the trace of (*T)^a_b.
    """
    pairs = np.swapaxes(cof, -1, -2)[..., None, :, :] @ dcof  # sum_k c^k_b d_mu c^k_c as [mu, b, c]
    contraction = np.tensordot(pairs, EPSILON.transpose(1, 0, 2), axes=3)
    return contraction / (3.0 * metric.vol)


def torsion(frame: FrameField, metric: MetricField) -> TorsionBundle:
    """Torsion of the frame connection, with all routes cross-checked.

    Computes the tensor from the connection and from coframe exterior
    derivatives, the dual from the Hodge definition and from the curl
    formula, and the axial scalar from the dual trace and from the
    explicit coframe expression.  The routes share one coframe and one
    derivative stack.  Any disagreement beyond 1e-10 (on O(1) fields)
    raises ConsistencyError.
    """
    cof = coframe(frame, metric)
    dcof = derivative_stack(cof)  # [..., mu, k, b]
    ax2 = _axial_dual_from_coframe(metric, cof, dcof)
    t1 = torsion_from_connection(_teleparallel(frame.e, dcof))
    dform = np.einsum("...cjd->...jcd", dcof) - np.einsum("...djc->...jcd", dcof)  # (d c^j)_{cd}
    del dcof  # each (n, n, n, 3, 3, 3) array is freed once used, and the gap is taken in place
    t2 = _torsion_from_coframe(frame.e, dform)
    t2 -= t1
    scale = max(1.0, float(t1.max()), -float(t1.min()))
    gap_t = max(float(t2.max()), -float(t2.min()))
    del t2
    if gap_t > 1e-10 * scale:
        raise ConsistencyError("torsion routes (connection vs coframe) disagree")

    star1 = _dual_2forms(metric, t1)
    star2 = _star_torsion_from_curl(frame.e, metric, dform)
    del dform
    gap_star = float(np.abs(star1 - star2).max())
    if gap_star > 1e-10 * scale:
        raise ConsistencyError("dual torsion routes (Hodge vs curl) disagree")

    ax1 = np.einsum("...aa->...", star1) / 3.0
    gap_ax = float(np.abs(ax1 - ax2).max())
    if gap_ax > 1e-10 * scale:
        raise ConsistencyError("axial dual routes (trace vs coframe formula) disagree")

    residuals = {
        "connection_vs_coframe": gap_t,
        "hodge_vs_curl": gap_star,
        "trace_vs_coframe_axial": gap_ax,
    }
    return TorsionBundle(
        T=t1,
        star_T=star1,
        axial_dual=ax1,
        charge=frame.orientation(),
        route_residuals=residuals,
    )


def hodge_star(metric: MetricField, values: np.ndarray, q: int) -> np.ndarray:
    """Hodge dual of an antisymmetric covariant q-tensor field, q in 0..3.

    Indices are raised with the metric before contraction with the
    permutation symbol; the output carries the complementary (3-q)
    covariant indices.  On a 3-torus the double dual is the identity on
    every rank.
    """
    if q not in (0, 1, 2, 3):
        raise InputError(f"form degree must be 0..3, got {q}")
    vol = metric.vol
    g = metric.g_contra
    expected = values.ndim - 3
    if expected != q:
        raise InputError(f"rank-{q} form must carry {q} component axes, got {expected}")
    if q == 0:
        return np.einsum("...,abc->...abc", values * vol, EPSILON)
    if q == 1:
        vr = np.einsum("...ab,...b->...a", g, values)
        return np.einsum("...a,abc->...bc", vr, EPSILON) * vol[..., None, None]
    _check_antisymmetric(values, q)
    if q == 2:
        return _dual_2forms(metric, values[..., None, :, :])[..., 0, :]
    vr = np.einsum("...ad,...be,...cf,...def->...abc", g, g, g, values)
    return np.einsum("...abc,abc->...", vr, EPSILON) * vol / 6.0


def _check_antisymmetric(values: np.ndarray, q: int):
    if q == 2:
        gap = float(np.abs(values + np.swapaxes(values, -1, -2)).max())
    else:
        gap = max(
            float(np.abs(values + values.transpose(0, 1, 2, 3, 5, 4)).max()),
            float(np.abs(values + values.transpose(0, 1, 2, 4, 3, 5)).max()),
        )
    scale = max(1.0, float(np.abs(values).max()))
    if gap > 1e-12 * scale:
        raise InputError("form field is not antisymmetric")


def parallel_transport(
    sym: PrincipalSymbolField,
    xi: np.ndarray,
    from_point: np.ndarray,
    to_point: np.ndarray,
) -> np.ndarray:
    """Transport a covector so the symbol matrix is preserved exactly.

    Solves sigma(to) . xi_new = sigma(from) . xi for xi_new; in frame
    components this is one 3x3 linear solve, and the result is
    path independent because the transporting connection is flat.
    """
    xi = np.asarray(xi, dtype=float)
    m_from, m_to = sym.interpolant()(np.array([from_point, to_point], dtype=float))
    if np.linalg.cond(m_to) > _FRAME_CONDITION_LIMIT:
        raise EllipticityError("frame at the target point is too ill-conditioned to invert")
    return np.linalg.solve(m_to, m_from @ xi)
