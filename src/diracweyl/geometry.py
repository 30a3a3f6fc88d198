"""Geometry encoded in 2x2 elliptic principal symbols on the 3-torus.

A trace-free Hermitian symbol that is linear in the covector determines,
pointwise, an orthonormal frame, a Riemannian metric, an orientation
sign, and a metric-compatible flat connection whose torsion carries all
the remaining local information.  This module decodes those objects
from grid samples of the symbol and provides the associated tensor
calculus: the Levi-Civita connection, and the torsion of the frame
connection, built once, by one route (torsion).

Index conventions: frames are stored as e[..., j, alpha] with j the
orthonormal-leg label and alpha the coordinate index (vectors);
coframes as c[..., k, beta] (covectors).  Torsion T[..., a, b, c]
means T^a_{bc}; the dual torsion star_T[..., a, b] means (*T)^a_b.
The kernels hold 3x3 fields components first, m[a, b, ...], one contiguous
grid field per entry; a symbol's p is the grid-first view of such an array.
"""

from __future__ import annotations

import weakref
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, EllipticityError, InputError, expect_type, gate
from .fields import _derivative, chart_of

# Standard Pauli matrices; the fixed fibre basis for all 2x2 symbols.
PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

_FRAME_CONDITION_LIMIT = 1e8
_HELD_P = weakref.WeakValueDictionary()  # (shape, crc32 of the bytes) -> a p some live symbol holds


def _det3(m: np.ndarray) -> np.ndarray:
    """Determinant of a (..., 3, 3) stack, expanded along its first row."""
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            + m[..., 0, 1] * (m[..., 1, 2] * m[..., 2, 0] - m[..., 1, 0] * m[..., 2, 2])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def _components_first(m: np.ndarray) -> np.ndarray:
    """A (..., r, c) stack of matrices as a C-contiguous (r, c, ...) array: one grid field per entry.

    Pointwise products of small matrices then run on whole contiguous
    fields (_matmul_cm), and transposing a matrix only swaps two leading
    axes; np.moveaxis(m, (0, 1), (-2, -1)) is the grid-first view back,
    and _grid_first its contiguous copy.  Of such a view (a symbol's p)
    it is a view again; any other layout is copied.
    """
    return np.ascontiguousarray(np.moveaxis(m, (-2, -1), (0, 1)))


def _grid_first(m: np.ndarray) -> np.ndarray:
    """A components-first (r, c, ...) stack as a C-contiguous (..., r, c) copy: the inverse of
    _components_first."""
    return np.ascontiguousarray(np.moveaxis(m, (0, 1), (-2, -1)))


def _matmul_cm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise x @ y of matrix fields held components first, x[i, j, ...] and y[j, k, ...].

    One einsum, summing over j in order, equal on real operands to a
    loop of whole-field ufunc calls but faster: on 32^3 contiguous points
    3x3 by 3x3 takes 0.91 ms (1.21 ms for the loop, 2.1 ms for batched @
    on grid-first stacks), 2x3 by 3x3 0.61 ms (0.92), 3x3 by 3x1 0.29 ms
    (0.40) (2-CPU Xeon VM, one BLAS thread).  Strided fields run slower.
    """
    return np.einsum("ij...,jk...->ik...", x, y)


def _gram(p: np.ndarray) -> np.ndarray:
    """g^{ab} = p_j^a p_j^b of a (..., 3, 3) component stack, held components first as g[a, b, ...].

    The metric of a symbol.  g^{ab} and g^{ba} sum the same products in
    the same order, so g is exactly symmetric; _grid_first gives the
    (..., 3, 3) layout back.
    """
    pc = _components_first(p)
    return _matmul_cm(pc.swapaxes(0, 1), pc)


def _unlinked(obj) -> dict:
    """The attributes of obj but its weak links, which pickle cannot store: geometry's __getstate__."""
    return {key: value for key, value in vars(obj).items() if type(value) is not weakref.ref}


class PrincipalSymbolField:
    """Symbol sigma^alpha = s^j p_j^alpha, held as the read-only real array p[..., j, alpha].

    p has the shape of FrameField.e and is the grid-first view of one
    C-contiguous p[j, alpha, ...], whose entries the kernels read as
    contiguous grid fields.  PrincipalSymbolField(sigma) gates the complex
    stack sigma[..., alpha, :, :] on Hermitian and trace-free matrices and
    reads p off it; symbol_from_frame sets p directly.  Both check
    ellipticity.  p is all a symbol keeps alive: the sigma property
    rebuilds the complex stack on each access and keeps nothing, and
    decode_metric links the metric it builds to the symbol by a weak
    reference, _metric, which a new symbol over an equal p starts without.  A p that is bit for bit
    one a live symbol holds is shared, as that very view object, so
    PrincipalSymbolField(sym.sigma) costs no memory beyond sym's.
    """

    __getstate__ = _unlinked

    def __init__(self, sigma: np.ndarray):
        s = np.asarray(sigma, dtype=complex)
        if s.ndim != 6 or s.shape[3:] != (3, 2, 2):
            raise InputError(f"symbol field must have shape (n, n, n, 3, 2, 2), got {s.shape}")
        chart_of(s)
        bound = 1e-13 * max(1.0, float(np.abs(s).max()))
        skew = s - np.conj(np.swapaxes(s, -1, -2))
        gate("symbol matrices must be Hermitian", skew, bound, InputError)
        gate("symbol matrices must be trace-free", s[..., 0, 0] + s[..., 1, 1], bound, InputError)
        self._hold(_components_first(np.swapaxes(pauli_components(s), -1, -2)))

    def _hold(self, pc: np.ndarray) -> PrincipalSymbolField:
        """Check ellipticity, then hold a view of the new pc[j, alpha, ...], or the equal p a live
        symbol holds."""
        pc.flags.writeable = False  # before the view inherits the flag
        p = np.moveaxis(pc, (0, 1), (-2, -1))
        _check_ellipticity(_gram(p), p)
        key = (pc.shape, zlib.crc32(pc))  # of the contiguous bytes
        held = _HELD_P.get(key)
        if held is None or not np.array_equal(_components_first(held).view(np.uint64), pc.view(np.uint64)):
            held = _HELD_P[key] = p
        self.p = held
        return self

    @property
    def sigma(self) -> np.ndarray:
        """The complex (n, n, n, 3, 2, 2) stack s^j p_j^alpha, built on each access."""
        return pauli_matrices(np.swapaxes(self.p, -1, -2))

    @property
    def chart(self):
        return chart_of(self.p)


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

    def orientation(self) -> int:
        """Sign of det e, checked to be uniform across the grid."""
        return _orientation(_det3(self.e), self.e)


def _orientation(d: np.ndarray, e: np.ndarray) -> int:
    """Sign of the determinant field d of a frame e, checked uniform across the grid and, at
    every point, above 1e-14 times the cube of e's largest entry, a test that c e passes as e."""
    if np.any(np.abs(d) <= 1e-14 * max(e.max(), -e.min()) ** 3):
        idx = tuple(int(i) for i in np.unravel_index(np.argmin(np.abs(d)), d.shape))
        raise EllipticityError(f"frame degenerates at grid point {idx}")
    signs = np.sign(d)
    if signs.min() != signs.max():
        raise ConsistencyError("frame orientation changes sign across the grid")
    return int(signs.flat[0])


class MetricField:
    """The metric of a symbol, held components first: contra[a, b, ...] = g^{ab} = p_j^a p_j^b,
    cov[a, b, ...] = g_{ab} and the Riemannian density vol = sqrt(det g_cov), all read-only.

    det g = (det p)^2, so vol = 1/|det p|, from the cofactor sum _det3 of p that the charge and
    the frame orientation read, and g_cov = adj(g) vol^2, the adjugate adj(g) @ g = det(g) I
    written out in closed form, one whole grid field per entry.  The symbol's constructor checked
    ellipticity on this g, so it is not checked again.  g_contra and g_cov are new grid-first,
    C-contiguous (n, n, n, 3, 3) copies on each access.  A metric from decode_metric also holds
    the weak links _p and _torsion that torsion reads.
    """

    __getstate__ = _unlinked

    def __init__(self, sym: PrincipalSymbolField):
        expect_type(sym, PrincipalSymbolField, "sym")
        gc = _gram(sym.p)
        adj = np.empty_like(gc)
        term = np.empty_like(gc[0, 0])
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                np.multiply(gc[i1, j1], gc[i2, j2], out=adj[j, i])
                adj[j, i] -= np.multiply(gc[i1, j2], gc[i2, j1], out=term)
        vol = 1.0 / np.abs(_det3(sym.p))
        adj *= vol**2
        self.contra, self.cov, self.vol = _read_only(gc, adj, vol)

    g_contra = property(lambda self: _grid_first(self.contra), doc="g^{ab}, grid-first, copied on access.")
    g_cov = property(lambda self: _grid_first(self.cov), doc="g_{ab}, grid-first, copied on access.")


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, each flagged read-only in place."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _linked(owner, name: str):
    """What owner's weak reference name points at, or None if owner has none or it has died."""
    link = getattr(owner, name, None)
    return None if link is None else link()


# (b, c) = (h + 1, h + 2) mod 3: the index pair of the h-th independent component of a 2-form.
_PAIRS = ((1, 2), (2, 0), (0, 1))


@dataclass(eq=False)
class TorsionBundle:
    """Torsion of the frame connection and its duals, held components first as torsion builds them.

    conn[a, h, ...] = T^a_{bc} with (b, c) = (h + 1, h + 2) mod 3, the three independent
    components of each leg's antisymmetric T^a_{bc}; star[a, b, ...] = (*T)^a_b.
    components[..., a, h] and star_T[..., a, b] are new grid-first, C-contiguous copies of them on
    each access, and the T property builds the full T[..., a, b, c] on each access; none is kept.
    axial_dual is the scalar *T_ax = (1/3) (*T)^g_g; charge is the orientation sign of the
    generating frame.  The arrays are read-only.  torsion builds them by one route, the frame
    connection; asymptotics._torsion_at, the curvature route b2_density_fiber_curvature and the
    test oracles of tests/test_geometry.py compute them otherwise, and check this bundle.
    """

    conn: np.ndarray
    star: np.ndarray
    axial_dual: np.ndarray
    charge: int

    components = property(lambda self: _grid_first(self.conn), doc="T^a_{bc} as [..., a, h], copied on access.")
    star_T = property(lambda self: _grid_first(self.star), doc="(*T)^a_b as [..., a, b], copied on access.")

    @property
    def T(self) -> np.ndarray:
        """The full (n, n, n, 3, 3, 3) tensor T^a_{bc}, zero on b = c, built on each access."""
        t = np.zeros(self.conn.shape[2:] + (3, 3, 3))
        for h, (b, c) in enumerate(_PAIRS):
            t[..., b, c] = np.moveaxis(self.conn[:, h], 0, -1)
            np.negative(t[..., b, c], out=t[..., c, b])
        return t


# Points per block of _extreme_eigenvalues: its temporaries take about 0.4 MB at any grid size.
_EIGEN_BLOCK = 2**12


def _extreme_eigenvalues(gc: np.ndarray) -> tuple:
    """Smallest and largest eigenvalues of a symmetric 3x3 field held components first, gc[a, b, ...].

    The trigonometric closed form (Smith, CACM 4(4), 1961), in blocks of
    _EIGEN_BLOCK points, on each point's matrix scaled by its largest
    |entry|: with q = tr/3, r^2 = |g - q I|^2 / 6 and cos(3 phi) =
    det(g - q I) / (2 r^3), the eigenvalues are q + 2 r cos(phi + 2 pi k/3).
    The error is about eps times the largest eigenvalue, but about
    sqrt(eps) times it where two eigenvalues nearly coincide (arccos near
    +-1).  A point with no finite nonzero entry gives NaN.  It reads the
    upper triangle.
    """
    flat = gc.reshape(3, 3, -1)
    lo, hi = np.empty(flat.shape[2]), np.empty(flat.shape[2])
    for start in range(0, len(lo), _EIGEN_BLOCK):
        part = slice(start, start + _EIGEN_BLOCK)
        upper = [flat[a, b, part] for a, b in zip(*_UPPER)]  # views of g00, g01, g02, g11, g12, g22
        scale = np.max(np.abs(upper), axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d0, u, v, d1, w, d2 = (x / scale for x in upper)
            q = (d0 + d1 + d2) / 3.0
            d0, d1, d2 = d0 - q, d1 - q, d2 - q
            r = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (u * u + v * v + w * w)) / 6.0)
            det = d0 * (d1 * d2 - w * w) - u * (u * d2 - w * v) + v * (u * w - d1 * v)
            cos3 = np.where(r > 0.0, det / (2.0 * r**3), 0.0)  # r = 0: g = q I
        phi = np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0
        lo[part] = (q + 2.0 * r * np.cos(phi + 2.0 * np.pi / 3.0)) * scale
        hi[part] = (q + 2.0 * r * np.cos(phi)) * scale
    return lo.reshape(gc.shape[2:]), hi.reshape(gc.shape[2:])


# Points whose closed-form smallest eigenvalue is at most this times the largest take p's
# singular values.  That covers the closed form's error 130 times over: 7.6e-9 of the largest eigenvalue,
# measured on p with singular values (1, t, t), t = 1e-1 to 1e-9.
_CLOSED_FORM_BAND = 1e-6


def _check_ellipticity(gc: np.ndarray, p: np.ndarray):
    """Refuse a symbol p whose metric is not positive definite, or whose frame condition number
    passes 1e8.

    The closed form reads the extreme eigenvalues lo and hi of g = p^T p,
    held components first as gc[a, b, ...] (_extreme_eigenvalues).  Where
    it reads lo <= 1e-6 hi, or NaN, its sqrt(eps) hi error could matter, so
    those points take lo and hi as the squares of p's extreme singular
    values, which LAPACK's SVD keeps to about eps times the frame condition
    number.  (eigvalsh on g resolves lo only to about eps times hi, no
    digits at the gate's ratio near 1e-16, and cofactor formulas lose all
    the digits of det p where p has two small singular values.)  So every
    point that can fail either test is decided on LAPACK's SVD.
    """
    lo, hi = _extreme_eigenvalues(gc)
    band = ~(lo > _CLOSED_FORM_BAND * hi)  # NaN included
    if np.any(band):
        s = np.linalg.svd(p[band], compute_uv=False)
        lo[band], hi[band] = s[:, 2] ** 2, s[:, 0] ** 2
    if np.any(lo <= 0.0):
        idx = tuple(int(i) for i in np.unravel_index(np.argmin(lo), lo.shape))
        raise EllipticityError(f"symbol fails ellipticity at grid point {idx}")
    gate("frame condition number", np.sqrt(hi / lo), _FRAME_CONDITION_LIMIT, EllipticityError)


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
    expect_type(frame, (FrameField, np.ndarray), "frame")
    e = frame.e if isinstance(frame, FrameField) else FrameField(frame).e
    return _held_symbol(np.moveaxis(e, (-2, -1), (0, 1)).copy())


def _held_symbol(pc: np.ndarray) -> PrincipalSymbolField:
    """A symbol holding the fresh components-first pc[j, alpha, ...], checked for ellipticity."""
    return PrincipalSymbolField.__new__(PrincipalSymbolField)._hold(pc)


def decode_frame(sym: PrincipalSymbolField) -> FrameField:
    """The frame e_j^alpha = p_j^alpha the symbol holds, over its read-only array.

    Leg 1 and 2 are the real and negated imaginary parts of the
    off-diagonal symbol entry, leg 3 the upper diagonal entry; this
    inverts symbol_from_frame exactly.
    """
    expect_type(sym, PrincipalSymbolField, "sym")
    fr = FrameField(sym.p)
    fr.orientation()  # force the degeneracy check
    return fr


def decode_metric(sym: PrincipalSymbolField) -> MetricField:
    """Riemannian metric g^{ab} = p_j^a p_j^b, so that det(sigma . xi) = -g(xi, xi).

    While some caller holds the metric, a later call on the same symbol
    object returns it: the symbol keeps a weak reference to it, _metric,
    and it one to sym.p, _p.  A metric nobody holds is built anew.
    """
    metric = _linked(sym, "_metric")
    if metric is None:
        metric = MetricField(sym)
        metric._p = weakref.ref(sym.p)
        sym._metric = weakref.ref(metric)
    return metric


def topological_charge(sym: PrincipalSymbolField) -> int:
    """Orientation invariant of the symbol, +1 or -1: the sign of det p, the same at every grid point.

    By tr(sigma^1 sigma^2 sigma^3) = 2i det p and sqrt(det g_cov) = 1/|det p|, it is the paper's
    normalised fibre determinant -(i/2) sqrt(det g_cov) tr(sigma^1 sigma^2 sigma^3).  A sign change
    or a degenerate frame is refused, as by FrameField.orientation."""
    expect_type(sym, PrincipalSymbolField, "sym")
    return _orientation(_det3(sym.p), sym.p)


def orthonormalize_frame(e: np.ndarray) -> FrameField:
    """Gram-Schmidt the frame legs in the Euclidean inner product.

    Explicitly opt-in: decoding never orthonormalises behind the
    caller's back.  Rows are processed in order 1, 2, 3.
    """
    expect_type(e, np.ndarray, "e")
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


def _coframe(ec: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """Coframe c^k_b = delta^{kj} g_{bc} e_j^c as [b, k, ...] from e_j^a as ec[j, a, ...] and gc = g_cov,
    all components first, gated on the duality e c^T = I to 1e-10."""
    cof = _matmul_cm(gc, ec.swapaxes(0, 1))  # g_cov is symmetric
    dual = _matmul_cm(ec, cof)
    dual[[0, 1, 2], [0, 1, 2]] -= 1.0  # e c^T - I
    gate("frame/coframe duality violated", dual.transpose(2, 3, 4, 0, 1), 1e-10)
    return cof


def coframe(frame: FrameField, metric: MetricField) -> np.ndarray:
    """Metric-dual coframe c[..., k, b] = c^k_b = delta^{kj} g_{bc} e_j^c, grid-first and C-contiguous."""
    expect_type(frame, FrameField, "frame")
    expect_type(metric, MetricField, "metric")
    return _grid_first(_coframe(_components_first(frame.e), metric.cov).swapaxes(0, 1))


# g_cov's six independent entries, packed in this order; _PACKED[c][d] is the place of g_cd.
_UPPER = np.triu_indices(3)
_PACKED = np.zeros((3, 3), dtype=int)
_PACKED[_UPPER] = _PACKED[_UPPER[::-1]] = np.arange(6)


def christoffel_symbols(metric: MetricField) -> np.ndarray:
    """Levi-Civita connection coefficients G[..., b, a, c] (upper, lower, lower).

    Only the six independent entries of g_cov are differentiated.  The
    lowered symbols (d_a g_cd + d_c g_ad - d_d g_ac) / 2 are summed from
    those derivatives once per pair a <= c.  Once the derivatives are
    freed, each pair is raised by g^{db} in one components-first product
    and written to (a, c) and (c, a), so G is symmetric in a and c
    exactly.  It reads the metric's components-first arrays; the result
    is held components first, as [a, c, b, ...], and returned as a view.
    """
    packed = metric.cov[_UPPER]  # [place, ...]
    dg = [_derivative(packed, mu + 1) for mu in range(3)]  # [mu][place]
    del packed
    s = np.empty((3, 3, 3) + metric.vol.shape)  # [a, c, d, ...] for a <= c
    for a in range(3):
        for c in range(a, 3):
            for d in range(3):
                np.add(dg[a][_PACKED[c, d]], dg[c][_PACKED[a, d]], out=s[a, c, d])
                s[a, c, d] -= dg[d][_PACKED[a, c]]
            s[a, c] *= 0.5
    del dg  # before the raise allocates
    for a in range(3):  # in place: [a, c, b, ...]; g^{db} is symmetric
        for c in range(a, 3):
            s[a, c] = s[c, a] = _matmul_cm(s[a, c:c + 1], metric.contra)[0]
    return s.transpose(3, 4, 5, 2, 0, 1)


def _dual_2forms(forms: np.ndarray, gc: np.ndarray, vol: np.ndarray) -> np.ndarray:
    """(1/2) sqrt(det g) eps_{efb} g^{ec} g^{fd} w_{cd} for a stack of 2-forms, components first.

    The forms come as their independent components forms[k, h, ...] =
    w_{bc} with (b, c) = (h + 1, h + 2) mod 3, and g_cov as gc[h, b, ...].
    By eps_{efb} g^{ec} g^{fd} = det(g^{..}) eps^{cdh} g_{hb} the dual
    [k, b, ...] is forms[k, h] g_{hb} / vol with vol = sqrt(det g_{..}).
    """
    out = _matmul_cm(forms, gc)
    out /= vol
    return out


def torsion(frame: FrameField, metric: MetricField) -> TorsionBundle:
    """Torsion of the frame connection, built once, by one route.

    T^a_{bc} = G^a_{bc} - G^a_{cb} from the connection G^a_{mu b} =
    e_j^a d_mu c^j_b of the metric-dual coframe, of which direction mu
    differentiates only the six entries c^j_b, b != mu, that T reads; the
    Hodge dual *T of each leg's 2-form (_dual_2forms); and the axial
    scalar *T_ax = (1/3) tr *T.  It works components first on the three
    independent components of each antisymmetric index pair.  The checks
    that compute the torsion otherwise: asymptotics._torsion_at, which
    differentiates the frame by the chain rule, against this bundle at
    every grid point (test_torsion_at_points_matches_the_grid_bundle);
    b2_density_fiber_curvature, which forms no coframe, against the b2
    this torsion gives (acceptance criterion 3); and the test oracles of
    tests/test_geometry.py, which build T from the full derivative stack.

    While some caller holds the bundle of a metric from decode_metric and
    a frame over the very p it was decoded from, the pair gets it again
    (the metric's weak reference _torsion); any other pair builds anew.
    """
    expect_type(frame, FrameField, "frame")
    expect_type(metric, MetricField, "metric")
    if frame.e.shape[:3] != metric.vol.shape:
        raise InputError(f"frame on the {frame.e.shape[0]}^3 grid and metric on the "
                         f"{metric.vol.shape[0]}^3 grid do not match")
    shared = frame.e is _linked(metric, "_p")
    bundle = _linked(metric, "_torsion") if shared else None
    if bundle is None:
        bundle = _torsion(frame, metric)
        if shared:
            metric._torsion = weakref.ref(bundle)
    return bundle


def _torsion(frame: FrameField, metric: MetricField) -> TorsionBundle:
    """The torsion bundle of a frame and a metric on one grid, by the connection route."""
    ec = _components_first(frame.e)  # e_j^a as [j, a]
    cof = _coframe(ec, metric.cov)  # c^j_b as [b, j]
    conn = np.zeros_like(cof)  # T^a_{bc} = G^a_{bc} - G^a_{cb} as [a, h]
    for mu in range(3):
        # component mu - 1 has (b, c) = (mu, mu + 1) and component mu + 1 has (mu - 1, mu)
        before, after = (mu - 1) % 3, (mu + 1) % 3
        d = _derivative(cof[before::after - before][:2], mu + 2)  # d_mu c^j_b as [b, j], b = before, after
        g = _matmul_cm(d, ec)  # G^a_{mu b} as [b, a] for b = before, after
        conn[:, before] += g[1]
        conn[:, after] -= g[0]
        del d, g  # before the next direction's product allocates
    del cof
    star = _dual_2forms(conn, metric.cov, metric.vol)
    axial = (star[0, 0] + star[1, 1] + star[2, 2]) / 3.0
    conn, star, axial = _read_only(conn, star, axial)
    return TorsionBundle(conn=conn, star=star, axial_dual=axial, charge=frame.orientation())
