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

from .defaults import _DEFAULT_TOL
from .errors import ConsistencyError, InputError, expect_type, gate
from .fields import _FOURIER_TOL, _derivative, _fourier_content, chart_of
from .geometry import (
    PAULI,
    FrameField,
    MetricField,
    PrincipalSymbolField,
    _coframe,
    _components_first,
    _grid_first,
    _gram,
    _held_symbol,
    _matmul_cm,
    christoffel_symbols,
    decode_metric,
    pauli_matrices,
    symbol_from_frame,
    torsion,
)

IDENTITY2 = np.eye(2, dtype=complex)

# Largest |entry| of an operator's a0.  With a0 = q I the torus integral of b
# (n^3 densities of q/(2 pi^2)) overflows float64 past |q| = 8.7e305 at 16^3
# and 1.08e305 at 32^3 (measured), so past about 1.7e303 at the 128^3 ceiling.
_A0_LIMIT = 1e300


@dataclass(eq=False)
class FirstOrderOperator:
    """Full symbol of a formally self-adjoint first-order 2x2 operator.

    sigma holds the principal coefficients, a0 the zeroth-order matrix.
    Formal self-adjointness is equivalent to the subprincipal symbol
    being Hermitian pointwise; that is validated on construction, and a
    NaN anywhere in a0 fails it.  An a0 entry larger than 1e300 in size
    is refused first.
    """

    sigma: PrincipalSymbolField
    a0: np.ndarray

    def __post_init__(self):
        expect_type(self.sigma, PrincipalSymbolField, "sigma")
        a0 = np.asarray(self.a0, dtype=complex)
        if a0.shape != self.sigma.p.shape[:3] + (2, 2):
            raise InputError(f"a0 must have shape (n, n, n, 2, 2), got {a0.shape}")
        largest = float(np.abs(a0).max())  # NaN here is left to the self-adjointness gate
        if largest > _A0_LIMIT:
            raise InputError(f"a0 has an entry of size {largest:.3g}, over the limit {_A0_LIMIT:g}")
        self.a0 = a0
        skew = _subprincipal(a0, _half_divergence(self.sigma.p))
        re, im = skew.real, skew.imag  # A_sub - A_sub^* in place; numpy buffers the overlapping operand
        re -= re.swapaxes(0, 1)
        im += im.swapaxes(0, 1)
        gate("operator is not formally self-adjoint: subprincipal symbol is not Hermitian",
             np.moveaxis(skew, (0, 1), (-2, -1)), 1e-10 * max(1.0, largest))

    @property
    def chart(self):
        return self.sigma.chart


def subprincipal_symbol(op: FirstOrderOperator) -> np.ndarray:
    """A_sub = a0 + (i/2) s^j d_a p_j^a (covector-independent here), by three real derivatives of p."""
    expect_type(op, FirstOrderOperator, "op")
    return _grid_first(_subprincipal(op.a0, _half_divergence(op.sigma.p)))


def _half_divergence(p: np.ndarray) -> np.ndarray:
    """Half the real divergences, sum_a d_a p_j^a / 2 as [j, ...]: one derivative per p[:, a] stack."""
    pc = _components_first(p)
    return 0.5 * sum(_derivative(pc[:, a], a + 1) for a in range(3))


def _subprincipal(a0: np.ndarray, half_div: np.ndarray) -> np.ndarray:
    """A_sub = a0 + (i/2) s^j div_j, new and components first as asub[p, q, ...], from half_div[j, ...]:
    i div_3 / 2 and -i div_3 / 2 on the diagonal, (div_2 + i div_1) / 2 above it and
    (-div_2 + i div_1) / 2 below.  The term is trace-free, so tr A_sub = tr a0."""
    asub = np.array(np.moveaxis(a0, (-2, -1), (0, 1)), dtype=complex, order="C")
    d1, d2, d3 = half_div
    re, im = asub.real, asub.imag
    im[0, 0] += d3
    im[1, 1] -= d3
    re[0, 1] += d2
    im[0, 1] += d1
    re[1, 0] -= d2
    im[1, 0] += d1
    return asub


def dirac_operator(frame: FrameField) -> FirstOrderOperator:
    """Massless Dirac operator of an orthonormal frame, on half-densities.

    The frame fixes the operator: _dirac_a0 builds its symbol, checking
    ellipticity once, and its zeroth-order part.  A Dirac operator is
    self-adjoint, so failing that gate means the grid does not resolve
    the frame: the error then also names how much of p and of g_cov, the
    fields a0 is built from, sits on the outermost Fourier shell (or that
    neither has any there, so the products that form a0 alias), and asks
    for a finer grid.
    """
    expect_type(frame, (FrameField, np.ndarray), "frame")
    return _shifted_dirac(frame)


def _shifted_dirac(frame: FrameField, shift=None) -> FirstOrderOperator:
    """dirac_operator(frame) with the constant Hermitian 2x2 shift, if any, added to its a0: one
    operator, so one self-adjointness gate, refused as dirac_operator refuses."""
    sym, a0 = _dirac_a0(frame)
    if shift is not None:
        a0 = a0 + shift  # same bits as +=, which raised the bench verdict peak resident size 6 MB
    try:
        return FirstOrderOperator(sym, a0)
    except ConsistencyError as err:
        n = sym.p.shape[0]
        tails = {"p": sym.p, "g_cov": decode_metric(sym).g_cov}
        held = " and ".join(f"{t:.2e} of {name}'s largest coefficient" for name, values in tails.items()
                            if (t := _outer_shell_fraction(values)) > 0)
        why = (f"its outermost Fourier shell |m|_inf = {n // 2} holds {held}" if held else
               f"p and g_cov have no content on its outermost Fourier shell |m|_inf = {n // 2}, so "
               f"the residual comes from aliasing in the products that form a0")
        raise ConsistencyError(f"{err}; the frame is not resolved on the {n}^3 grid: {why}; use a "
                               f"finer grid") from err


def _outer_shell_fraction(values: np.ndarray) -> float:
    """Largest Fourier coefficient on the shell |m|_inf = n/2 relative to the largest, both as kept."""
    modes, coefs = _fourier_content(values)
    shell = np.any(np.abs(modes) == values.shape[0] // 2, axis=1)
    return float(np.abs(coefs[shell]).max(initial=0.0) / np.abs(coefs).max(initial=_FOURIER_TOL))


_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]


def _axial(m: np.ndarray) -> np.ndarray:
    """ax(m)_n = eps_nkl m_kl = m[n+1, n+2] - m[n+2, n+1] of a components-first (3, 3, ...) matrix."""
    return m[_NEXT, _AFTER] - m[_AFTER, _NEXT]


def _trace3(m: np.ndarray) -> np.ndarray:
    """tr m of a components-first (3, 3, ...) matrix."""
    return m[0, 0] + m[1, 1] + m[2, 2]


def _dirac_a0(frame: FrameField) -> tuple:
    """The symbol of a frame and the zeroth-order part of its Dirac operator, with e = p:

        a0 = -(i/4) sigma^a sigma_b (d_a sigma^b + G^b_{ag} sigma^g)
             + (i/2) sigma^a G^b_{ab}

    with G the Levi-Civita coefficients of the metric.  The last term
    is the half-density conjugation, folded in analytically via the
    identity G^b_{ab} = d_a log sqrt(det g).

    Everything is contracted on real frame components, with explicit
    Pauli algebra.  With sigma^a = s^j e_j^a, sigma_b = s^k c^k_b (c the
    coframe) and the bracket s^l D_a[l, b], D_a[l, b] = d_a e_l^b +
    G^b_{ag} e_l^g, the spin connection W_a = D_a c^T gives
    sigma_b (bracket) = s^k s^l W_a[l, k] = tr(W_a) I - i ax(W_a).s, by
    s^k s^l = delta_kl I + i eps_klm s^m.  The same rule once more gives

        sigma^a sigma_b (bracket) = (u + ax V).s - i tr(V) I,

    u = e tr(W) and V = e ax(W), with the per-direction scalars stacked
    on a: a0 is a real multiple of I plus i times one traceless
    Hermitian matrix.  The 3x3 algebra runs components first, on
    contiguous grid fields.  The metric is dropped, all but g_cov, once
    the Christoffel symbols are built; each temporary is freed once
    used, so dirac_operator peaks at 2.46 MB of traced allocation at 16^3.
    """
    sym = symbol_from_frame(frame)
    metric = MetricField(sym)
    work = christoffel_symbols(metric).transpose(4, 5, 3, 0, 1, 2)  # G^b_{ag} as [a, g, b, ...]
    gc = metric.cov
    del metric  # its g^{ab} and vol go before the coframe and the derivatives allocate
    ec = _components_first(sym.p)  # e_j^a as [j, a, ...]
    cof_t = _coframe(ec, gc)  # c^k_b as [b, k, ...]
    del gc
    for a in range(3):
        d = _derivative(ec, a + 2)  # d_a e_l^b as [l, b]
        d += _matmul_cm(ec, work[a])  # D_a
        w = _matmul_cm(d, cof_t)
        del d
        # G_a is spent: its [0, 0] entry keeps G^b_{ab} / 2 - tr(W_a) / 4, its second row ax(W_a)
        work[a, 0, 0] = 0.5 * _trace3(work[a]) - 0.25 * _trace3(w)
        work[a, 1] = _axial(w)
        del w  # before the next direction's derivative allocates
    v = _matmul_cm(ec, work[:, 1])  # V = e ax(W)
    vec = _matmul_cm(ec, work[:, 0, :1])[:, 0] - 0.25 * _axial(v)
    del work, cof_t, ec  # so the result can take their place
    a0 = pauli_matrices(np.moveaxis(vec, 0, -1))
    a0 *= 1j
    scalar = 0.25 * _trace3(v)
    a0[..., 0, 0] -= scalar
    a0[..., 1, 1] -= scalar
    return sym, a0


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
        rc = _components_first(r)
        unit = np.moveaxis(_matmul_cm(rc, np.conj(rc.swapaxes(0, 1))), (0, 1), (-2, -1))
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
    product-rule term -i R sigma^a d_a(R*) = -i R S, where
    S = s^j (p_j . grad) R* is read off p and the gradient of R* by
    explicit Pauli algebra.  So a0 becomes R (a0 R* - i S): two 2x2
    products, components first; O p is one 3x3 product on the symbol's own array.
    """
    expect_type(op, FirstOrderOperator, "op")
    expect_type(gauge, GaugeField, "gauge")
    r = gauge.R
    if r.shape[:3] != op.a0.shape[:3]:
        raise InputError(f"gauge field on the {r.shape[0]}^3 grid and operator on the "
                         f"{op.a0.shape[0]}^3 grid do not match")
    rc = _components_first(r)
    rh = np.conj(rc.swapaxes(0, 1))  # R* as [p, q, ...]
    pc = _components_first(op.sigma.p)  # p_j^a as [j, a, ...]
    d = np.zeros((3,) + rh.shape, dtype=complex)  # (p_j . grad) R* as [j, p, q, ...]
    for a in range(3):
        d_a = _derivative(rh, a + 2)
        for j in range(3):
            d[j] += pc[j, a] * d_a
    # s^j D_j: s^1 swaps the rows of D_1, s^2 swaps them times (-i, i), s^3 negates the second
    x = _matmul_cm(_components_first(op.a0), rh)
    x[0] -= 1j * (d[0, 1] - 1j * d[1, 1] + d[2, 0])
    x[1] -= 1j * (d[0, 0] + 1j * d[1, 0] - d[2, 1])
    del d, rh  # so the results can take their place
    a0_new = _grid_first(_matmul_cm(rc, x))
    del rc, x  # before O p allocates
    sym = _held_symbol(_matmul_cm(_components_first(so3_from_su2(r)), pc))
    return FirstOrderOperator(sym, a0_new)


def so3_from_su2(r: np.ndarray) -> np.ndarray:
    """Adjoint rotation O with R s^k R* = s^j O_jk; works pointwise on fields.

    With rows (a, b) and (c, d) of R, the products R s^k R* have the
    upper entries below, and O reads them as pauli_components does.  An
    R whose O is not orthogonal, or whose determinant is not 1 (each to
    1e-10), is refused: it is not in SU(2).  The determinant check
    catches unitary R off SU(2), such as i Id, whose O is a rotation.
    O is the grid-first view of a components-first O[j, k, ...], as a symbol's p.
    """
    r = np.asarray(r, dtype=complex)
    a, b = r[..., 0, 0], r[..., 0, 1]
    c_bar, d_bar = np.conj(r[..., 1, 0]), np.conj(r[..., 1, 1])
    upper = (b * c_bar + a * d_bar, 1j * (b * c_bar - a * d_bar), a * c_bar - b * d_bar)  # (R s^k R*)_01
    ab_bar = a * np.conj(b)
    diagonal = (2.0 * ab_bar.real, 2.0 * ab_bar.imag,  # (R s^k R*)_00, real
                (a * np.conj(a)).real - (b * np.conj(b)).real)
    o = np.array([[u.real for u in upper], [-u.imag for u in upper], diagonal])  # O_jk as [j, k, ...]
    o = np.moveaxis(o, (0, 1), (-2, -1))
    gate("adjoint rotation is not orthogonal; input is not SU(2)",
         np.moveaxis(_gram(o), (0, 1), (-2, -1)) - np.eye(3), 1e-10, InputError)
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
    expect_type(o_field, np.ndarray, "o_field")
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
    * reconstructed_gap - max |A_sub - (3c/4) (*T_ax) Id|, the residual
      of the paper's subprincipal/axial-torsion identity, which equals
      max |a0 - a0_Dirac| for the Dirac operator of the decoded frame.
      It reads the subprincipal symbol and torsion the other two
      residuals use, so no Dirac a0 and no Christoffel symbols are built.

    The metric and the torsion are those a caller still holds for the
    symbol (decode_metric, torsion); the half divergence is new each call.
    """
    expect_type(op, FirstOrderOperator, "op")
    if not 0.0 <= tol < np.inf:
        raise InputError(f"tol must be a finite non-negative number, got {tol}")
    metric = decode_metric(op.sigma)
    tor = torsion(FrameField(op.sigma.p), metric)  # its orientation check refuses a degenerate frame
    c_tax = tor.charge * tor.axial_dual
    cond_b = float(np.abs(_weyl_b(metric.vol, c_tax, op.a0)).max())
    asub = _subprincipal(op.a0, _half_divergence(op.sigma.p))
    # A - tr(A)/2 = (Re A01, -Im A01, diag).s
    diag = asub[0, 0].real - 0.5 * (asub[0, 0].real + asub[1, 1].real)
    cond_a = float(np.hypot(np.hypot(asub[0, 1].real, asub[0, 1].imag), diag).max())  # no overflow
    asub[[0, 1], [0, 1]] -= 0.75 * c_tax
    gap = float(np.abs(asub).max())
    ok = cond_a <= tol and cond_b <= tol and gap <= tol
    return DiracVerdict(is_dirac=bool(ok), cond_a_residual=cond_a, cond_b_residual=cond_b,
                        reconstructed_gap=gap, tol=tol)


def _weyl_b(vol: np.ndarray, c_tax=None, a0=None) -> np.ndarray:
    """b = (3 c *T_ax - 2 tr A_sub) sqrt(det g) / (8 pi^2), with tr A_sub = tr a0;
    b1 without c_tax, b2 without a0."""
    axial = 0.0 if c_tax is None else 3.0 * c_tax
    trace = 0.0 if a0 is None else a0[..., 0, 0].real + a0[..., 1, 1].real
    return (axial - 2.0 * trace) * vol / (8.0 * np.pi**2)
