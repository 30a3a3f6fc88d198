"""First-order 2x2 operators on the torus: Dirac construction and checks.

Operators are stored by their full symbol: the principal part (three
Hermitian trace-free coefficient matrices contracted with the
covector) plus a zeroth-order matrix a0.  The massless Dirac operator
of a frame acts on half-density spinors; its zeroth-order part is
assembled analytically, including the log-derivative of det(g) that
the half-density conjugation contributes.

The SU(2)/SO(3) machinery (gauge transforms, spin lifts and their
topological obstruction) lives here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, gate
from .fields import _transposed, chart_of, derivative_stack, spectral_derivative
from .geometry import (
    PAULI,
    FrameField,
    MetricField,
    PrincipalSymbolField,
    TorsionBundle,
    _gram,
    christoffel_symbols,
    decode_frame,
    decode_metric,
    pauli_components,
    pauli_matrices,
    symbol_from_frame,
    torsion,
)

# Antisymmetric unit eps; conj(v) @ EPS_CONJ.T = -conj(v) @ EPS_CONJ is the negative-band
# eigenvector that the fibre frame in asymptotics pairs with the positive one v.
EPS_CONJ = np.array([[0.0, -1.0], [1.0, 0.0]])

IDENTITY2 = np.eye(2, dtype=complex)

_DEFAULT_TOL = 1e-7  # check_dirac's verdict tolerance


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
    being Hermitian pointwise; that is validated on construction, and a
    NaN anywhere in a0 fails it.
    """

    sigma: PrincipalSymbolField
    a0: np.ndarray

    def __post_init__(self):
        if not isinstance(self.sigma, PrincipalSymbolField):
            got = type(self.sigma).__name__
            raise InputError(f"sigma must be a PrincipalSymbolField, got {got}")
        a0 = np.asarray(self.a0, dtype=complex)
        if a0.shape != self.sigma.p.shape[:3] + (2, 2):
            raise InputError(f"a0 must have shape (n, n, n, 2, 2), got {a0.shape}")
        self.a0 = a0
        asub = subprincipal_symbol(self)
        gate("operator is not formally self-adjoint: subprincipal symbol is not Hermitian",
             asub - np.conj(np.swapaxes(asub, -1, -2)), 1e-10 * max(1.0, float(np.abs(a0).max())))

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


def dirac_operator(frame: FrameField) -> FirstOrderOperator:
    """Massless Dirac operator of an orthonormal frame, on half-densities.

    The frame fixes the operator: symbol_from_frame builds its symbol,
    checking ellipticity once, and _dirac_a0 its zeroth-order part.
    """
    sym = symbol_from_frame(frame)
    return FirstOrderOperator(sym, _dirac_a0(sym.p, decode_metric(sym)))


def _dirac_a0(e: np.ndarray, metric: MetricField) -> np.ndarray:
    """Zeroth-order part of the Dirac operator of frame e, whose metric is given:

        a0 = -(i/4) sigma^a sigma_b (d_a sigma^b + G^b_{ag} sigma^g)
             + (i/2) sigma^a G^b_{ab}

    with G the Levi-Civita coefficients of the metric.  The last term
    is the half-density conjugation, folded in analytically via the
    identity G^b_{ab} = d_a log sqrt(det g).

    Everything is contracted on real frame components: with sigma^a =
    s^j e_j^a, sigma_b = s^k c^k_b (c the coframe) and the bracket
    s^l D[a, l, b], the first term is -(i/4) M_jkl s^j s^k s^l where
    M_jkl = e_j^a c^k_b D[a, l, b].  Pauli products of three are
    real combinations of s^1, s^2, s^3 and i I, so a0 is a real
    multiple of I plus i times one traceless Hermitian matrix.
    """
    grid = e.shape[:3]
    work = christoffel_symbols(metric).transpose(0, 1, 2, 4, 5, 3)  # G^b_{ag} as [a, g, b]
    half_density = (e @ np.trace(work, axis1=-2, axis2=-1)[..., None])[..., 0]  # e_j^a G^b_{ab}
    cof_t = metric.g_cov @ _transposed(e)  # c^k_b as [b, k]; g_cov is symmetric
    # each a-slice of G becomes (D c)[a, l, k], with D[a, l, b] = d_a e_l^b + G^b_{ag} e_l^g
    for a in range(3):
        d = spectral_derivative(e, a + 1)
        d += e @ work[..., a, :, :]
        work[..., a, :, :] = d @ cof_t
        del d  # before the next direction's transforms allocate
    del cof_t
    m = e @ work.reshape(grid + (3, 9))  # M_jkl = e_j^a (D c)[a, l, k] as [j, (l, k)]
    del work
    coef = m.reshape(grid + (27,)) @ _PAULI_TRIPLES  # M_jkl s^j s^k s^l = coef_n s^n + i coef_3 I
    a0 = 1j * pauli_matrices(0.5 * half_density - 0.25 * coef[..., :3])
    a0[..., 0, 0] += 0.25 * coef[..., 3]
    a0[..., 1, 1] += 0.25 * coef[..., 3]
    return a0


def verify_subprincipal_identity(frame: FrameField) -> float:
    """Residual of the subprincipal/axial-torsion identity for a Dirac operator.

    For the Dirac operator of the frame, the subprincipal symbol equals
    (3c/4) * (*T_ax) * Id with c the orientation charge.  Returns the
    max entrywise deviation over the grid.
    """
    op = dirac_operator(frame)
    return _identity_residual(subprincipal_symbol(op), torsion(frame, decode_metric(op.sigma)))


def _identity_residual(asub: np.ndarray, tor: TorsionBundle) -> float:
    """max |A_sub - (3c/4) (*T_ax) Id| over the grid, from the torsion of the operator's frame.

    Zero for the Dirac operator of that frame.  For any operator with the
    same principal symbol it equals max |a0 - a0_Dirac|, since the two
    subprincipal symbols share their derivative term.
    """
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


def _det2(r: np.ndarray) -> np.ndarray:
    """Determinant of a (..., 2, 2) stack."""
    return r[..., 0, 0] * r[..., 1, 1] - r[..., 0, 1] * r[..., 1, 0]


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
        gate("gauge field is not unitary", unit - IDENTITY2, 1e-12, InputError)
        gate("gauge field must have unit determinant", _det2(r) - 1.0, 1e-12, InputError)
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
    if r.shape[:3] != op.a0.shape[:3]:
        raise InputError(f"gauge field on the {r.shape[0]}^3 grid and operator on the "
                         f"{op.a0.shape[0]}^3 grid do not match")
    rh = np.conj(np.swapaxes(r, -1, -2))
    drh = derivative_stack(rh)  # [a, p, q]
    a0_new = np.einsum("...pq,...qr,...rs->...ps", r, op.a0, rh) - 1j * np.einsum(
        "...pq,...aqr,...ars->...ps", r, op.sigma.sigma, drh
    )
    return FirstOrderOperator(symbol_from_frame(so3_from_su2(r) @ op.sigma.p), a0_new)


def so3_from_su2(r: np.ndarray) -> np.ndarray:
    """Adjoint rotation O with R s^k R* = s^j O_jk; works pointwise on fields.

    An R whose O is not orthogonal, or whose determinant is not 1 (each
    to 1e-10), is refused: it is not in SU(2).  The determinant check
    catches unitary R off SU(2), such as i Id, whose O is a rotation.
    """
    r = np.asarray(r, dtype=complex)
    rot = np.einsum("...pq,kqr,...sr->...kps", r, PAULI, np.conj(r), optimize=True)  # R s^k R*
    o = _transposed(pauli_components(rot))
    gate("adjoint rotation is not orthogonal; input is not SU(2)", _gram(o) - np.eye(3), 1e-10,
         InputError)
    gate("determinant is not 1; input is not SU(2)", _det2(r) - 1.0, 1e-10, InputError)
    return o


# Since sum_k s^k X s^k = 2 tr(X) I - X, Y_A = A + sum_jk O_jk s^j A s^k
# equals 2 tr(R* A) R for either lift R of O.  Over the four A below,
# tr(R* A) runs through twice the quaternion components of R, so the
# largest det Y_A = 4 tr(R* A)^2 is at least 4.
_LIFT_BASIS = np.stack([IDENTITY2, -1j * PAULI[0], -1j * PAULI[1], -1j * PAULI[2]])
_LIFT_TABLE = np.einsum("jpq,Aqr,krs->Ajkps", PAULI, _LIFT_BASIS, PAULI)  # s^j A s^k


def _su2_from_rotation(o: np.ndarray) -> np.ndarray:
    """One SU(2) lift R = Y_A / sqrt(det Y_A) per point of a rotation field, sign arbitrary."""
    y = _LIFT_BASIS + np.tensordot(o, _LIFT_TABLE, axes=([-2, -1], [1, 2]))  # (..., A, 2, 2)
    det = (y[..., 0, 0] * y[..., 1, 1] - y[..., 0, 1] * y[..., 1, 0]).real
    best = np.argmax(det, axis=-1)[..., None]
    y = np.take_along_axis(y, best[..., None, None], axis=-3)[..., 0, :, :]
    return y / np.sqrt(np.take_along_axis(det, best, axis=-1))[..., None]


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
    gate("input is not orthogonal", np.einsum("...ja,...ka->...jk", o, o) - np.eye(3), 1e-8,
         InputError)
    if np.any(np.linalg.det(o) < 0.0):
        raise InputError("rotation field must be special orthogonal (det +1)")

    r = _su2_from_rotation(o)

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
    gate("lift does not reproduce the rotation field", so3_from_su2(out.R) - o, 1e-10)
    return out


@dataclass
class DiracVerdict:
    """Outcome of the massless-Dirac characterisation for one operator.

    cond_a_residual and cond_b_residual measure the paper's two conditions;
    reconstructed_gap is the distance of a0 from the Dirac operator of the
    decoded frame, read off the subprincipal/axial-torsion identity.
    """

    is_dirac: bool
    cond_a_residual: float
    cond_b_residual: float
    reconstructed_gap: float
    tol: float


def check_dirac(op: FirstOrderOperator, tol: float = _DEFAULT_TOL) -> DiracVerdict:
    """Decide whether the operator is the massless Dirac operator of its frame.

    Three residuals, all required below tol:

    * cond_a_residual - proportionality of the subprincipal symbol to
      the identity (max operator norm of its trace-free part);
    * cond_b_residual - vanishing of the second Weyl coefficient
      density b(x) (max modulus over the grid);
    * reconstructed_gap - max |A_sub - (3c/4) (*T_ax) Id|, which equals
      max |a0 - a0_Dirac| for the Dirac operator of the decoded frame.
      It reads the subprincipal symbol and torsion the other two
      residuals use, so no Dirac a0 and no Christoffel symbols are built.
    """
    from .asymptotics import _coefficients  # local import to avoid a cycle

    if not 0.0 <= tol < np.inf:
        raise InputError(f"tol must be a finite non-negative number, got {tol}")
    metric = decode_metric(op.sigma)
    asub = subprincipal_symbol(op)
    tor = torsion(decode_frame(op.sigma), metric)
    gap = _identity_residual(asub, tor)

    trace_half = 0.5 * (asub[..., 0, 0] + asub[..., 1, 1])
    devi = pauli_components(asub - trace_half[..., None, None] * IDENTITY2)
    cond_a = float(np.sqrt((devi**2).sum(axis=-1)).max())

    cond_b = float(np.abs(_coefficients(metric, asub, tor).b).max())

    ok = cond_a <= tol and cond_b <= tol and gap <= tol
    return DiracVerdict(is_dirac=bool(ok), cond_a_residual=cond_a, cond_b_residual=cond_b,
                        reconstructed_gap=gap, tol=tol)
