"""First-order 2x2 operators on the torus: Dirac construction and checks.

Operators are stored by their full symbol: the principal part (three
Hermitian trace-free coefficient matrices contracted with the
covector) plus a zeroth-order matrix a0.  The massless Dirac operator
of a frame acts on half-density spinors; its zeroth-order part is
assembled analytically, including the log-derivative of det(g) that
the half-density conjugation contributes.

The SU(2)/SO(3) machinery (gauge transforms, spin lifts and their
topological obstruction, charge conjugation) lives here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError
from .fields import chart_of, derivative_stack, hermitian_residual, spectral_derivative
from .geometry import (
    PAULI,
    FrameField,
    MetricField,
    PrincipalSymbolField,
    christoffel_symbols,
    decode_frame,
    decode_metric,
    metric_from_frame,
    pauli_matrices,
    symbol_from_frame,
    torsion,
)

# Antisymmetric unit used by charge conjugation; C(v) = EPS_CONJ @ conj(v).
EPS_CONJ = np.array([[0.0, -1.0], [1.0, 0.0]])

IDENTITY2 = np.eye(2, dtype=complex)


def _pauli_triples() -> np.ndarray:
    """Real t with s^j s^k s^l = t_n s^n + t_3 i I, one row per (j, l, k):
    t_n = tr(s^j s^k s^l s^n) / 2 and t_3 = Im tr(s^j s^k s^l) / 2."""
    prod = np.einsum("jpq,kqr,lrs->jlkps", PAULI, PAULI, PAULI)
    t = np.einsum("jlkps,nsp->jlkn", prod, PAULI).real
    t3 = np.einsum("jlkpp->jlk", prod).imag
    return np.concatenate([t, t3[..., None]], axis=-1).reshape(27, 4) / 2.0


_PAULI_TRIPLES = _pauli_triples()


@dataclass(eq=False)
class FirstOrderOperator:
    """Full symbol of a formally self-adjoint first-order 2x2 operator.

    sigma holds the principal coefficients, a0 the zeroth-order matrix.
    Formal self-adjointness is equivalent to the subprincipal symbol
    being Hermitian pointwise; that is validated on construction.
    """

    sigma: PrincipalSymbolField
    a0: np.ndarray

    def __post_init__(self):
        if not isinstance(self.sigma, PrincipalSymbolField):
            self.sigma = PrincipalSymbolField(np.asarray(self.sigma))
        a0 = np.asarray(self.a0, dtype=complex)
        if a0.shape != self.sigma.p.shape[:3] + (2, 2):
            raise InputError(f"a0 must have shape (n, n, n, 2, 2), got {a0.shape}")
        self.a0 = a0
        scale = max(1.0, float(np.abs(a0).max()))
        res = hermitian_residual(subprincipal_symbol(self))
        if res > 1e-10 * scale:
            raise ConsistencyError(
                f"subprincipal symbol is not Hermitian (residual {res:.2e}); "
                "operator is not formally self-adjoint"
            )

    @property
    def chart(self):
        return self.sigma.chart


def divergence_sigma(sym: PrincipalSymbolField) -> np.ndarray:
    """sum_a d(sigma^a)/dx^a = s^j d_a p_j^a, the derivative term of the subprincipal symbol.

    Three real-FFT derivatives of the symbol's real components; the
    result is one complex (n, n, n, 2, 2) matrix field.
    """
    return pauli_matrices(sum(spectral_derivative(sym.p[..., :, a], a + 1) for a in range(3)))


def subprincipal_symbol(op: FirstOrderOperator) -> np.ndarray:
    """A_sub = a0 + (i/2) sum_a d(sigma^a)/dx^a (covector-independent here)."""
    return op.a0 + 0.5j * divergence_sigma(op.sigma)


def dirac_operator(frame: FrameField, metric: MetricField | None = None) -> FirstOrderOperator:
    """Massless Dirac operator of an orthonormal frame, on half-densities.

    The principal part is the frame contracted with Pauli matrices; the
    zeroth-order part is

        a0 = -(i/4) sigma^a sigma_b (d_a sigma^b + G^b_{ag} sigma^g)
             + (i/2) sigma^a G^b_{ab}

    with G the Levi-Civita coefficients of the decoded metric.  The
    last term is the half-density conjugation, folded in analytically
    via the identity G^b_{ab} = d_a log sqrt(det g).

    Everything is contracted on real frame components: with sigma^a =
    s^j e_j^a, sigma_b = s^k c^k_b (c the coframe) and the bracket
    s^l D[a, l, b], the first term is -(i/4) M_jkl s^j s^k s^l where
    M_jkl = e_j^a c^k_b D[a, l, b].  Pauli products of three are
    real combinations of s^1, s^2, s^3 and i I, so a0 is a real
    multiple of I plus i times one traceless Hermitian matrix.
    """
    if metric is None:
        metric = metric_from_frame(frame)
    e = frame.e
    grid = e.shape[:3]
    gamma = christoffel_symbols(metric).transpose(0, 1, 2, 4, 5, 3)  # G^b_{ag} as [a, g, b]
    bracket = derivative_stack(e)  # D[a, l, b] = d_a e_l^b + G^b_{ag} e_l^g
    bracket += e[..., None, :, :] @ gamma
    half_density = (e @ np.trace(gamma, axis1=-2, axis2=-1)[..., None])[..., 0]  # e_j^a G^b_{ab}
    del gamma  # the (n, n, n, 3, 3, 3) arrays are freed once used
    cof = e @ np.swapaxes(metric.g_cov, -1, -2)
    m = (e @ bracket.reshape(grid + (3, 9))).reshape(grid + (9, 3))
    del bracket
    m = m @ np.swapaxes(cof, -1, -2)  # M_jkl stored as [(j, l), k]
    coef = m.reshape(grid + (27,)) @ _PAULI_TRIPLES  # M_jkl s^j s^k s^l = coef_n s^n + i coef_3 I
    a0 = 1j * pauli_matrices(0.5 * half_density - 0.25 * coef[..., :3])
    a0[..., 0, 0] += 0.25 * coef[..., 3]
    a0[..., 1, 1] += 0.25 * coef[..., 3]
    return FirstOrderOperator(symbol_from_frame(frame), a0)


def verify_subprincipal_identity(frame: FrameField, metric: MetricField | None = None) -> float:
    """Residual of the subprincipal/axial-torsion identity for a Dirac operator.

    For the Dirac operator of the frame, the subprincipal symbol equals
    (3c/4) * (*T_ax) * Id with c the orientation charge.  Returns the
    max entrywise deviation over the grid.
    """
    if metric is None:
        metric = metric_from_frame(frame)
    op = dirac_operator(frame, metric)
    asub = subprincipal_symbol(op)
    tor = torsion(frame, metric)
    rhs = (0.75 * tor.charge * tor.axial_dual)[..., None, None] * IDENTITY2
    return float(np.abs(asub - rhs).max())


def apply_operator(op: FirstOrderOperator, v: np.ndarray) -> np.ndarray:
    """Apply the operator to a two-component field v[..., 2] spectrally."""
    v = np.asarray(v, dtype=complex)
    if v.shape != op.a0.shape[:3] + (2,):
        raise InputError(f"spinor field must have shape (n, n, n, 2), got {v.shape}")
    s = op.sigma.sigma
    out = np.einsum("...pq,...q->...p", op.a0, v)
    for a in range(3):
        out = out - 1j * np.einsum(
            "...pq,...q->...p", s[..., a, :, :], spectral_derivative(v, a + 1)
        )
    return out


def charge_conjugation(v: np.ndarray) -> np.ndarray:
    """Antilinear conjugation C(v) = eps conj(v); C^2 = -1.

    Commutes with every Dirac operator, which forces even eigenvalue
    multiplicities.
    """
    return np.einsum("pq,...q->...p", EPS_CONJ, np.conj(v))


@dataclass(eq=False)
class GaugeField:
    """Grid field of SU(2) matrices."""

    R: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.R, dtype=complex)
        if r.ndim != 5 or r.shape[3:] != (2, 2):
            raise InputError(f"gauge field must have shape (n, n, n, 2, 2), got {r.shape}")
        chart_of(r)
        unit = np.einsum("...pq,...rq->...pr", r, np.conj(r))
        if float(np.abs(unit - IDENTITY2).max()) > 1e-12:
            raise InputError("gauge field is not unitary within 1e-12")
        det = r[..., 0, 0] * r[..., 1, 1] - r[..., 0, 1] * r[..., 1, 0]
        if float(np.abs(det - 1.0).max()) > 1e-12:
            raise InputError("gauge field must have unit determinant")
        self.R = r


@dataclass(eq=False)
class Obstruction:
    """Report that no single-valued SU(2) lift exists.

    axis is the coordinate loop (1-based) along which sign-consistent
    continuation fails to close.
    """

    axis: int
    detail: str = ""


def gauge_transform(op: FirstOrderOperator, gauge: GaugeField) -> FirstOrderOperator:
    """Conjugate the operator by a smooth SU(2) field: A -> R A R*.

    The principal coefficients rotate pointwise, R s^j R* = s^k O_kj
    with O = so3_from_su2(R), so p becomes O p; a0 picks up the
    product-rule term -i R sigma^a d_a(R*).
    """
    r = gauge.R
    rh = np.conj(np.swapaxes(r, -1, -2))
    drh = derivative_stack(rh)  # [a, p, q]
    a0_new = np.einsum("...pq,...qr,...rs->...ps", r, op.a0, rh) - 1j * np.einsum(
        "...pq,...aqr,...ars->...ps", r, op.sigma.sigma, drh
    )
    return FirstOrderOperator(symbol_from_frame(so3_from_su2(r) @ op.sigma.p), a0_new)


def so3_from_su2(r: np.ndarray) -> np.ndarray:
    """Adjoint rotation O_jk = (1/2) tr(s_j R s^k R*); works pointwise on fields."""
    r = np.asarray(r, dtype=complex)
    out = 0.5 * np.einsum("jpq,...qr,krs,...ps->...jk", PAULI, r, PAULI, np.conj(r))
    if float(np.abs(out.imag).max()) > 1e-12:
        raise ConsistencyError("adjoint rotation came out non-real; input is not SU(2)")
    return out.real


def _quaternion_from_rotation(m: np.ndarray) -> np.ndarray:
    """One quaternion (w, x, y, z) per point for a rotation field, sign arbitrary.

    Branch selection a la Shepperd: use the largest of the four squared
    components for numerical safety.
    """
    t = np.einsum("...aa->...", m)
    qsq = np.stack(
        [
            1.0 + t,
            1.0 + 2.0 * m[..., 0, 0] - t,
            1.0 + 2.0 * m[..., 1, 1] - t,
            1.0 + 2.0 * m[..., 2, 2] - t,
        ],
        axis=-1,
    ) / 4.0
    branch = np.argmax(qsq, axis=-1)
    q = np.zeros(m.shape[:-2] + (4,))
    for b in range(4):
        mask = branch == b
        if not np.any(mask):
            continue
        mm = m[mask]
        big = np.sqrt(np.maximum(qsq[mask][:, b], 0.0))
        inv = 0.25 / big
        if b == 0:
            w = big
            x = (mm[:, 2, 1] - mm[:, 1, 2]) * inv
            y = (mm[:, 0, 2] - mm[:, 2, 0]) * inv
            z = (mm[:, 1, 0] - mm[:, 0, 1]) * inv
        elif b == 1:
            x = big
            w = (mm[:, 2, 1] - mm[:, 1, 2]) * inv
            y = (mm[:, 0, 1] + mm[:, 1, 0]) * inv
            z = (mm[:, 0, 2] + mm[:, 2, 0]) * inv
        elif b == 2:
            y = big
            w = (mm[:, 0, 2] - mm[:, 2, 0]) * inv
            x = (mm[:, 0, 1] + mm[:, 1, 0]) * inv
            z = (mm[:, 1, 2] + mm[:, 2, 1]) * inv
        else:
            z = big
            w = (mm[:, 1, 0] - mm[:, 0, 1]) * inv
            x = (mm[:, 0, 2] + mm[:, 2, 0]) * inv
            y = (mm[:, 1, 2] + mm[:, 2, 1]) * inv
        q[mask] = np.stack([w, x, y, z], axis=-1)
    return q


def _su2_from_quaternion(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    r = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    r[..., 0, 0] = w - 1j * z
    r[..., 0, 1] = -1j * x - y
    r[..., 1, 0] = -1j * x + y
    r[..., 1, 1] = w + 1j * z
    return r


def _pair_alignment(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/2) Re tr(A* B): +-1 for equal/opposite SU(2) elements."""
    return 0.5 * np.real(np.einsum("...pq,...pq->...", np.conj(a), b))


_ALIGNMENT_FLOOR = 0.3


def su2_lift(o_field: np.ndarray):
    """Lift a smooth SO(3) field on the torus to SU(2), if possible.

    The lift is fixed at the base grid point by choosing the sign with
    nonnegative real trace, then propagated along axis-ordered paths
    (x1 line, then x2 lines, then x3 lines).  Returns a GaugeField, or
    an Obstruction naming a coordinate loop along which the
    sign-consistent continuation fails to close up.  Neighbouring input
    rotations must stay within a quarter turn of each other, otherwise
    the continuation is ill-defined and InputError is raised.
    """
    o = np.asarray(o_field, dtype=float)
    if o.ndim != 5 or o.shape[3:] != (3, 3):
        raise InputError(f"rotation field must have shape (n, n, n, 3, 3), got {o.shape}")
    chart_of(o)
    gap = float(np.abs(np.einsum("...ja,...ka->...jk", o, o) - np.eye(3)).max())
    if gap > 1e-8:
        raise InputError(f"input is not orthogonal (residual {gap:.2e})")
    if np.any(np.linalg.det(o) < 0.0):
        raise InputError("rotation field must be special orthogonal (det +1)")

    r = _su2_from_quaternion(_quaternion_from_rotation(o))

    # Base point: nonnegative real trace.
    if np.real(r[0, 0, 0, 0, 0] + r[0, 0, 0, 1, 1]) < 0.0:
        base_sign = -1.0
    else:
        base_sign = 1.0

    ip1 = _pair_alignment(r[:-1, 0, 0], r[1:, 0, 0])
    ip2 = _pair_alignment(r[:, :-1, 0], r[:, 1:, 0])
    ip3 = _pair_alignment(r[:, :, :-1], r[:, :, 1:])
    if min(np.abs(ip1).min(), np.abs(ip2).min(), np.abs(ip3).min()) < _ALIGNMENT_FLOOR:
        raise InputError(
            "rotation field varies too fast between neighbouring grid points; "
            "refine the grid before lifting"
        )

    n = o.shape[0]
    signs = np.ones((n, n, n))
    signs[1:, 0, 0] = np.cumprod(np.sign(ip1))
    signs[:, 1:, 0] = signs[:, :1, 0] * np.cumprod(np.sign(ip2), axis=1)
    signs[:, :, 1:] = signs[:, :, :1] * np.cumprod(np.sign(ip3), axis=2)
    r = base_sign * signs[..., None, None] * r

    # Every neighbouring pair, including the wrap-around ones, must now
    # agree in sign; a negative wrap product is the topological
    # obstruction for that coordinate loop.
    for axis in (3, 2, 1):
        rolled = np.roll(r, -1, axis=axis - 1)
        align = _pair_alignment(r, rolled)
        if np.any(align < 0.0):
            idx = tuple(int(i) for i in np.unravel_index(np.argmin(align), align.shape))
            return Obstruction(
                axis=axis,
                detail=(
                    f"sign-consistent continuation around the x{axis} loop "
                    f"through grid point {idx} closes on -R instead of R"
                ),
            )

    out = GaugeField(r)
    back = so3_from_su2(out.R)
    res = float(np.abs(back - o).max())
    if res > 1e-10:
        raise ConsistencyError(f"lift does not reproduce the rotation field (residual {res:.2e})")
    return out


@dataclass
class DiracVerdict:
    """Outcome of the massless-Dirac characterisation for one operator."""

    is_dirac: bool
    cond_a_residual: float
    cond_b_residual: float
    reconstructed_gap: float
    tol: float


def check_dirac(op: FirstOrderOperator, tol: float = 1e-7) -> DiracVerdict:
    """Decide whether the operator is the massless Dirac operator of its frame.

    Three residuals, all required below tol:

    * cond_a_residual - proportionality of the subprincipal symbol to
      the identity (max operator norm of its trace-free part);
    * cond_b_residual - vanishing of the second Weyl coefficient
      density b(x) (max modulus over the grid);
    * reconstructed_gap - max difference between a0 and the a0 of the
      Dirac operator rebuilt from the decoded frame; the rebuilt
      principal part is the operator's own p, so it adds exactly 0.
    """
    from .asymptotics import _coefficients  # local import to avoid a cycle

    frame = decode_frame(op.sigma)
    metric = decode_metric(op.sigma)
    asub = subprincipal_symbol(op)
    trace_half = 0.5 * (asub[..., 0, 0] + asub[..., 1, 1])
    devi = asub - trace_half[..., None, None] * IDENTITY2
    cond_a = float(
        np.sqrt(np.abs(devi[..., 0, 0].real) ** 2 + np.abs(devi[..., 0, 1]) ** 2).max()
    )

    coeffs = _coefficients(metric, asub, torsion(frame, metric))
    cond_b = float(np.abs(coeffs.b).max())

    gap = float(np.abs(op.a0 - dirac_operator(frame, metric).a0).max())

    ok = cond_a <= tol and cond_b <= tol and gap <= tol
    return DiracVerdict(
        is_dirac=bool(ok),
        cond_a_residual=cond_a,
        cond_b_residual=cond_b,
        reconstructed_gap=gap,
        tol=tol,
    )
