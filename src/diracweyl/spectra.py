"""Spectra on the torus and the 3-sphere: exact tables, Galerkin, counting.

Exact reference spectra: the flat-torus Dirac operator for any of the
eight spin structures (encoded as half-integer lattice shifts) and the
round-sphere Dirac operator.  Numerical spectra come from a plane-wave
Galerkin projection of a first-order operator; for band-limited
coefficients the matrix elements are exact Fourier data, so interior
eigenvalues converge extremely fast and are reliable in a window well
inside the mode cutoff.  One table of those data per call gates the
operator and assembles the projected matrix's blocks, one per coset of
the lattice spanned by the coefficients' Fourier support, each solved on
its own; one that commutes with the spinor time reversal is solved from
half its entries, as a quaternion Hermitian matrix.  Requests whose
dense blocks or exact-table histograms exceed a fixed memory budget are
refused before anything is allocated.

Counting utilities: the sharp eigenvalue counting function (strict
inequality, ambiguity surfaced rather than resolved), comparison
against a two-term growth law, and mollified counting with a
compactly-band-limited bump kernel.  The kernel scales with its width,
so one sampled width-1 CDF serves every width in (0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .defaults import _DEFAULT_KERNEL_WIDTH
from .errors import ConsistencyError, InputError, expect_type, gate, is_number
from .fields import _fourier_content

if TYPE_CHECKING:
    from .operators import FirstOrderOperator

_CLUSTER_TOL = 1e-7
_ON_EIGENVALUE_TOL = 1e-9  # a lambda this close to an eigenvalue sits on it
_SAMPLES_PER_OCTAVE = 24  # dense geometric sampling of asymptotic_comparison
_NUDGE = 1e-6  # how far asymptotic_comparison moves a sample that sits on an eigenvalue
# From this start on, its sample spacing lambda (2^(1/24) - 1) exceeds the nudge plus the
# tie tolerance, so a nudged sample stays below the next (and lambda^2 far from underflow).
_COMPARE_FLOOR = (_NUDGE + _ON_EIGENVALUE_TOL) / (2.0 ** (1.0 / _SAMPLES_PER_OCTAVE) - 1.0)

# Largest Hermitian block solved densely.  On the eigvalsh path its solve holds the block and
# eigvalsh's copy, 34 bytes per entry (36 + 36 MB resident measured at order 1458, 2-CPU Xeon
# VM), so about 2.2 GB at order 8000.  The quaternion-pair path (_kramers_tridiagonal) holds half
# the block and its pending update, 13 bytes per entry (26.7 MB resident growth measured at
# order 1458, of which the pair is 17 MB).  Larger blocks are refused before allocation.
_DENSE_ORDER_BUDGET = 8000
_BATCH_BYTES = 1 << 22  # matrices of one size solved together; an order above 362 goes alone
# A lone self-conjugate block is solved as a quaternion pair when the time-reversal defect
# bounds every eigenvalue's move by this much, far below the 1e-12 the block solve is held to.
_KRAMERS_TOL = 1e-13
_KRAMERS_PANEL = 32  # reflectors accumulated before the trailing rows are updated at once
# Longest histogram of q = 4|m - s|^2 an exact table builds (lambda_max
# up to 1024); it and its table take about 40 bytes per entry.  The same
# budget caps a sphere table's length, through _q_max a lattice_count
# radius, and the number of modes in a Galerkin mode cube (cutoff up to
# 80; about 80 bytes per mode).
_Q_LENGTH_BUDGET = 1 << 22


@dataclass(frozen=True)
class SpinStructure:
    """One of the eight flat spin structures, as a lattice shift in {0, 1/2}^3."""

    shift: tuple

    def __post_init__(self):
        shift = self.shift
        s = () if isinstance(shift, str) or not np.iterable(shift) else tuple(shift)
        if len(s) != 3 or not all(is_number(x) and x in (0.0, 0.5) for x in s):
            raise InputError(f"spin-structure shift must lie in {{0, 1/2}}^3, got {shift!r}")
        object.__setattr__(self, "shift", tuple(float(x) for x in s))

    def is_trivial(self) -> bool:
        return self.shift == (0.0, 0.0, 0.0)


def all_spin_structures():
    """The eight shift vectors, trivial one first."""
    out = [SpinStructure((a, b, c)) for a in (0.0, 0.5) for b in (0.0, 0.5) for c in (0.0, 0.5)]
    return sorted(out, key=lambda s: sum(s.shift))


@dataclass(eq=False)
class SpectrumTable:
    """Distinct eigenvalues with multiplicities, plus provenance/coverage.

    coverage = (lo, hi) is the interval over which the table is
    guaranteed complete; counting refuses queries beyond it.
    positive_cumsum[i], built once here, counts the positive
    eigenvalues among values[:i] with multiplicity; every count reads it.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    provenance: str
    coverage: tuple
    metadata: dict = field(default_factory=dict)
    positive_cumsum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.multiplicities, dtype=int)
        if v.ndim != 1 or v.shape != m.shape:
            raise InputError("values and multiplicities must be matching 1-d arrays")
        if not np.all(np.isfinite(v)):
            raise InputError("eigenvalues must be finite")
        if len(v) > 1 and np.any(np.diff(v) <= 0.0):
            raise InputError("eigenvalues must be strictly increasing")
        if np.any(m <= 0):
            raise InputError("multiplicities must be positive")
        self.values = v
        self.multiplicities = m
        self.positive_cumsum = np.concatenate([[0], np.cumsum(np.where(v > 0.0, m, 0))])

    def __len__(self):
        return len(self.values)


def _q_max(radius: float, name: str) -> int:
    """floor((2 radius)^2), the largest q = 4|m - s|^2 inside a ball of this radius.

    The one admission rule of exact tables and lattice counts: a q
    histogram longer than _Q_LENGTH_BUDGET (radius 1024 and up) is
    refused, so lattice_count admits every radius a table covers.  The
    radius is compared before it is squared, since (2 radius)**2 raises
    OverflowError past about 6.7e153; in floats too, (2 radius)^2 < 2^22
    holds exactly when 2 radius < 2^11.
    """
    if 2.0 * radius < math.isqrt(_Q_LENGTH_BUDGET):
        return int(np.floor((2.0 * radius) ** 2))
    square = (2.0 * radius) * (2.0 * radius)  # inf, not OverflowError, past the float range
    qmax = math.floor(square) if square < math.inf else square
    raise InputError(f"{name} {radius} needs q = 4|m - s|^2 up to {qmax}, a histogram of "
                     f"length {qmax + 1}, over the budget of {_Q_LENGTH_BUDGET}; lower {name}")


def _shell_counts(shift, lambda_max: float, qmax: int) -> np.ndarray:
    """r[q] = #{m in Z^3 : 4|m - s|^2 = q} for 0 <= q <= qmax.

    Exact integer convolution of the three axis histograms of
    (2 m_a - 2 s_a)^2, each nonzero only at the O(lambda) squares, so
    memory stays O(qmax) = O(lambda^2).
    """
    hists = []
    for sa in shift:
        m = np.arange(int(np.floor(sa - lambda_max)), int(np.ceil(sa + lambda_max)) + 1)
        sq = (2 * m - int(2 * sa)) ** 2
        hists.append(np.bincount(sq[sq <= qmax], minlength=qmax + 1))
    counts = hists[0]
    for hist in hists[1:]:
        out = np.zeros_like(counts)
        for v in np.flatnonzero(hist):
            out[v:] += hist[v] * counts[: qmax + 1 - v]
        counts = out
    return counts


def torus_exact_spectrum(shift, lambda_max: float) -> SpectrumTable:
    """Exact flat-torus Dirac spectrum for the given spin structure.

    Trivial shift: a two-dimensional kernel plus one pair +-|m| for
    every nonzero lattice point.  Nontrivial shift s: one pair
    +-|m - s| for every lattice point, and no kernel.  Eigenvalues are
    grouped exactly via the integer 4|m - s|^2, whose counts come from
    a histogram of length (2 lambda_max)^2 + 1; one longer than
    _Q_LENGTH_BUDGET is refused (see _q_max).
    """
    s = shift if isinstance(shift, SpinStructure) else SpinStructure(shift)
    if not (is_number(lambda_max) and 0.0 < lambda_max < np.inf):
        raise InputError(f"lambda_max must be positive and finite, got {lambda_max}")
    qmax = _q_max(lambda_max, "lambda_max")
    counts = _shell_counts(s.shift, lambda_max, qmax)
    q = np.flatnonzero(counts[1:]) + 1
    pos = 0.5 * np.sqrt(q.astype(float))
    mult = counts[q]
    zero_v, zero_m = [], []
    if s.is_trivial():
        zero_v, zero_m = [0.0], [2 * int(counts[0])]
    return SpectrumTable(
        values=np.concatenate([-pos[::-1], zero_v, pos]),
        multiplicities=np.concatenate([mult[::-1], zero_m, mult]).astype(int),
        provenance=f"torus-exact shift={s.shift}",
        coverage=(-lambda_max, lambda_max),
        metadata={"shift": s.shift},
    )


def sphere_exact_spectrum(lambda_max: float) -> SpectrumTable:
    """Exact round-sphere Dirac spectrum: +-(k + 1/2), multiplicity k(k+1).

    A table longer than _Q_LENGTH_BUDGET is refused before allocation.
    """
    if not (is_number(lambda_max) and 0.0 < lambda_max < np.inf):
        raise InputError(f"lambda_max must be positive and finite, got {lambda_max}")
    k_max = int(np.floor(lambda_max - 0.5))
    if 2 * k_max > _Q_LENGTH_BUDGET:
        raise InputError(f"lambda_max {lambda_max} needs a sphere table of length {2 * k_max}, "
                         f"over the budget of {_Q_LENGTH_BUDGET}; lower lambda_max")
    ks = np.arange(1, k_max + 1)
    pos = ks + 0.5
    mult = ks * (ks + 1)
    return SpectrumTable(
        values=np.concatenate([-pos[::-1], pos]),
        multiplicities=np.concatenate([mult[::-1], mult]),
        provenance="sphere-exact",
        coverage=(-lambda_max, lambda_max),
    )


def lattice_count(center, radius: float) -> int:
    """Number of integer lattice points strictly inside the ball.

    Distances are compared exactly the same way eigenvalue tables are
    queried (via the rounded square root), so counting identities
    against exact spectra hold verbatim.  That test is monotone along
    the sorted m3 distances, so each (m1, m2) pair gets its count by
    bisection, all pairs at once: memory stays O(radius^2) and time
    O(radius^2 log radius).  A radius is admitted exactly when
    torus_exact_spectrum admits it as lambda_max (radius < 1024, see
    _q_max), so its plane holds at most (2 radius + 3)^2 points;
    larger radii are refused before allocation.
    """
    given, center = center, np.asarray(center)
    if (center.shape != (3,) or center.dtype.kind not in "iuf" or not all(map(is_number, given))
            or not np.isfinite(center).all() or not is_number(radius) or not 0.0 < radius < np.inf):
        raise InputError(f"center must be a finite 3-vector and radius positive and finite, "
                         f"got center {given} and radius {radius}")
    _q_max(radius, "radius")
    lo = np.floor(center - radius).astype(int)
    hi = np.ceil(center + radius).astype(int)
    d1, d2, d3 = ((np.arange(lo[a], hi[a] + 1) - center[a]) ** 2 for a in range(3))
    d12 = (d1[:, None] + d2).ravel()
    d3 = np.sort(d3)
    # inside[k] = sqrt(d12 + d3[k]) < radius holds on a prefix of k; find its length per pair
    count = np.zeros(d12.shape, dtype=np.int32)
    step = 1 << (d3.size.bit_length() - 1)
    while step:
        probe = np.minimum(count + step, d3.size)
        count = np.where(np.sqrt(d12 + d3[probe - 1]) < radius, probe, count)
        step >>= 1
    return int(count.sum(dtype=np.int64))


# ---------------------------------------------------------------------------
# plane-wave Galerkin spectra
# ---------------------------------------------------------------------------

def _operator_fourier_data(op: FirstOrderOperator):
    """Fourier modes of the operator coefficients, by the one rule of fields._fourier_content.

    Returns (ks, coef): integer mode vectors (K, 3) and coef[p, q, a, k], the [p, q] entry
    of sigma_hat^a(k) for a < 3 and of a0_hat(k) for a = 3, on the modes p's 9 real
    components and a0's 4 entries hold.  Content in a Nyquist bin cannot be assembled
    faithfully (the mode sign is ambiguous): above 1e-9 of the coefficient scale we refuse
    to proceed; below that it is discarded, shifting eigenvalues by no more than the
    dropped mass, negligible against the quadrature tolerances.
    """
    n = op.a0.shape[0]
    ks, raw = _fourier_content(np.concatenate([op.sigma.p.reshape(n, n, n, 9),
                                               op.a0.reshape(n, n, n, 4)], axis=-1))
    p1, p2, p3 = np.moveaxis(raw[:, :9].reshape(-1, 3, 3), 1, 0)  # p_hat_j^a as [a]
    pauli = np.stack([p3, p1 - 1j * p2, p1 + 1j * p2, -p3], axis=-2)  # [2p + q, a]
    hat = np.concatenate([pauli, raw[:, 9:, None]], axis=-1)
    nyquist = np.any(np.abs(ks) == n // 2, axis=1)
    gate("operator coefficients have content at the Nyquist mode; increase the grid resolution",
         hat[nyquist].ravel(), 1e-9 * np.abs(hat).max(initial=1.0))
    return ks[~nyquist], np.moveaxis(hat[~nyquist], 0, -1).reshape(2, 2, 4, -1)


def _lattice_basis(ks: np.ndarray) -> np.ndarray:
    """Hermite normal form of the integer lattice spanned by the rows of ks.

    Each row's first nonzero entry (its pivot) is positive and lies
    right of the previous row's; entries above a pivot are reduced
    modulo it.  Built by Euclidean row reduction, vectorised over rows.
    """
    rows = ks[np.any(ks != 0, axis=1)].astype(np.int64)
    basis, pivots = [], []
    for col in range(3):
        while np.count_nonzero(rows[:, col]) > 1:
            if rows.dtype != object and np.abs(rows).max() >= 1 << 31:
                rows = rows.astype(object)  # Python integers: q * pivot cannot wrap
            nz = np.flatnonzero(rows[:, col])
            p = nz[np.argmin(np.abs(rows[nz, col]))]
            pivot = rows[p].copy()
            rows = rows - (rows[:, col] // pivot[col])[:, None] * pivot
            rows[p] = pivot
            rows = rows[np.any(rows != 0, axis=1)]
        nz = np.flatnonzero(rows[:, col])
        if len(nz):
            pivot = rows[nz[0]]
            basis.append(pivot if pivot[col] > 0 else -pivot)
            pivots.append(col)
            rows = np.delete(rows, nz[0], axis=0)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            basis[i] = basis[i] - (basis[i][pivots[j]] // basis[j][pivots[j]]) * basis[j]
    return np.array(basis, dtype=np.int64).reshape(-1, 3)


def _coset_blocks(modes: np.ndarray, ks: np.ndarray) -> list:
    """Mode indices grouped by coset of the lattice spanned by ks.

    Returns one (count, size) index array per distinct coset size.  A
    coefficient with mode k couples m to m + k only, so the projected
    matrix has no entry between two cosets.  Reducing each mode by the
    Hermite basis, pivot by pivot, gives a canonical coset
    representative.  Its mixed-radix code over the representatives'
    bounding box orders them as rows, so one 1-D np.unique labels the
    cosets in the order np.unique(rep, axis=0) would, at a fraction of
    its time and memory.
    """
    rep = modes.copy()
    for row in _lattice_basis(ks):
        col = np.flatnonzero(row)[0]
        rep -= (rep[:, col] // row[col])[:, None] * row
    low = rep.min(axis=0)
    span = [int(s) for s in rep.max(axis=0) - low + 1]
    if span[0] * span[1] * span[2] >= 1 << 63:
        raise ConsistencyError(f"coset representatives span a box of {span} modes, too large "
                               f"for one int64 code")
    rep -= low
    code = rep @ np.array([span[1] * span[2], span[2], 1])
    del rep  # before the sort allocates
    label = np.unique(code, return_inverse=True)[1]
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))
    sizes, n_modes = np.unique(size[order], return_counts=True)
    bounds = np.cumsum(n_modes)[:-1]
    return [idx.reshape(-1, b) for idx, b in zip(np.split(order, bounds), sizes)]


class _GalerkinTable:
    """The coefficient table of one Galerkin call, and the only reader of its mode codes.

    ks (K, 3) holds the support modes that join two modes of the cube |m|_inf <= c, and _coef
    their coefficients [p, q, a, k] as _operator_fourier_data gives them, plus a last, all-zero
    column that an absent k reads; _rev is the table at -k.  modes are the cube's modes and groups
    their coset blocks (_coset_blocks).  Two modes of one coset differ by a k in [-2c, 2c]^3, where
    the mixed-radix code k @ radix is linear in k and unique, and _slot[code] is k's column of
    _coef (such codes lie in [-reach, reach], and a negative one indexes from the end of _slot).
    """

    def __init__(self, op: FirstOrderOperator, c: int):
        ks, coef = _operator_fourier_data(op)
        couples = np.all(np.abs(ks) <= 2 * c, axis=1)  # the rest never joins two cube modes
        self.c, self.ks = c, ks[couples]
        self._coef = np.concatenate([coef[..., couples], np.zeros((2, 2, 4, 1))], axis=-1)
        ax = np.arange(-c, c + 1)
        self.modes = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
        self.groups = _coset_blocks(self.modes, self.ks)
        largest, nm = self.groups[-1].shape[1], len(self.modes)
        if 2 * largest > _DENSE_ORDER_BUDGET:  # before the codes and _slot are built
            coupled = "every mode" if largest == nm else f"{largest} of its {nm} modes"
            raise InputError(
                f"Galerkin cutoff {c} needs a dense block of order {2 * largest}, over the "
                f"budget of {_DENSE_ORDER_BUDGET}: the operator's Fourier support couples "
                f"{coupled} into one block; lower the cutoff"
            )
        span = 4 * c + 1
        radix = np.array([span * span, span, 1])
        self._code = self.modes @ radix
        reach = max(int(np.ptp(self._code[group], axis=1).max()) for group in self.groups)
        kcode = self.ks @ radix
        self._slot = np.full(2 * reach + 1, len(self.ks))
        self._slot[kcode] = np.arange(len(self.ks))
        self._rev = self._coef[..., self._slot[-kcode]]  # an absent -k reads 0

    def hermiticity_defect(self) -> tuple:
        """H[pi, qj] - conj(H[qj, pi]) as [p, q, k], and its scale, the largest |entry| of H.

        The defect depends on k = m_i - m_j alone, so it is formed once per support mode:
        a0_hat_pq(k) - conj(a0_hat_qp(-k)) - sigma_hat_pq(k) . k.  Entry (m + k, m) is
        sigma_hat(k) . m + a0_hat(k) for every cube mode m with m + k in the cube, a box of modes.
        Each [p, q] entry is affine in m, and the modulus of an affine function peaks at a vertex,
        so the box's 8 corners give its largest value.
        """
        coef, ks, c = self._coef[..., :-1], self.ks, self.c
        defect = (coef[:, :, 3] - np.conj(self._rev[:, :, 3].swapaxes(0, 1))
                  - (coef[:, :, :3] * ks.T).sum(axis=2))
        lo, hi = np.maximum(-c, -c - ks), np.minimum(c, c - ks)
        bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
        corners = np.moveaxis(np.where(bits[:, None, :] == 1, hi, lo), -1, 1)  # [corner, a, k]
        entries = (coef[:, :, :3] * corners[:, None, None]).sum(axis=3) + coef[:, :, 3]
        return defect, float(np.abs(entries).max(initial=0.0))

    def time_reversal_defect(self) -> float:
        """delta_J, a bound on each block's ||H - J H J^-1||_2 and so, by Weyl, on any eigenvalue's move.

        For J = e conj (m -> -m), e = i s^2, sigma_hat^a(k) gains and a0_hat(k) loses
        e conj(X(-k)) e^T, where e X e^T = [[X11, -X10], [-X01, X00]].  With |m_j^a| <= c, summing
        each entry's bound over k and over q (or p) bounds every row (or column) sum of the block.
        """
        flip = np.conj(self._rev[::-1, ::-1]) * np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None, None]
        odd = np.abs(self._coef[..., :-1] + flip * np.array([1.0, 1.0, 1.0, -1.0])[:, None])
        sums = (self.c * odd[:, :, :3].sum(axis=2) + odd[:, :, 3]).sum(axis=-1)
        return float(max(sums.sum(axis=1).max(), sums.sum(axis=0).max()))

    def self_conjugate(self, idx: np.ndarray) -> bool:
        """Whether the coset of modes idx holds the mirror image of its first mode, so all of -C."""
        return bool(np.any(self._code[idx] == -self._code[idx[0]]))

    def blocks(self, idx: np.ndarray) -> np.ndarray:
        """Projected matrices (batch, 2b, 2b) of the equal-size cosets of modes idx (batch, b).

        Entry [pb + i, qb + j] is H[(m_i, p), (m_j, q)].  Only the blocks (0, 0), (1, 0) and
        (1, 1), the lower triangle eigvalsh (UPLO='L') and _eigvalsh2 read, are summed.
        """
        batch, b = idx.shape
        h = np.zeros((batch, 2, b, 2, b), dtype=complex)
        self._add([(p, q, h[:, p, :, q, :]) for p, q in ((0, 0), (1, 0), (1, 1))], idx, idx, 1)
        return h.reshape(batch, 2 * b, 2 * b)

    def pair(self, idx: np.ndarray) -> np.ndarray:
        """The top rows [A, B] of the self-conjugate coset idx's block, interleaved (b, 2b).

        A[i, j] = H[(m_i, up), (m_j, up)] and B[i, j] = H[(m_i, up), (-m_j, down)], assembled
        _KRAMERS_PANEL rows at a time: beside them one slab's indices and terms are held.
        """
        b = len(idx)
        g = np.zeros((b, b, 2), dtype=complex)
        for lo in range(0, b, _KRAMERS_PANEL):
            rows = idx[lo:lo + _KRAMERS_PANEL]
            for q, sign in ((0, 1), (1, -1)):
                self._add([(0, q, g[lo:lo + _KRAMERS_PANEL, :, q])], rows, idx, sign)
        return g.reshape(b, 2 * b)

    def _add(self, targets: list, rows: np.ndarray, cols: np.ndarray, sign: int) -> None:
        """out[..., i, j] += H[(m_i, p), (sign m_j, q)] for each (p, q, out) of targets.

        rows and cols index the modes m_i and m_j, with one leading shape.  The entry is
        sigma_hat_pq(k) . (sign m_j) + a0_hat_pq(k), and k = m_i - sign m_j has the column
        _slot[code_i - sign code_j] of _coef.  Each of its four terms is gathered into one reused
        buffer by np.take, whose mode="clip" allocates nothing (indices in range), and added to out.
        """
        sup = self._slot[self._code[rows][..., :, None] - sign * self._code[cols][..., None, :]]
        m = self.modes[cols]
        w = np.concatenate([sign * m, np.ones_like(m[..., :1])], axis=-1)[..., None, :, :]
        term = np.empty(sup.shape, dtype=complex)
        for p, q, out in targets:
            for a in range(4):
                np.take(self._coef[p, q, a], sup, out=term, mode="clip")
                term *= w[..., a]
                out += term


def _kramers_tridiagonal(g: np.ndarray) -> tuple:
    """The real tridiagonal (d, e) whose eigenvalues, each taken twice, are the quaternion pair g's.

    g (b, 2b) interleaves A (Hermitian) and B (skew-symmetric) as _GalerkinTable.pair does, and
    is overwritten.  The complex matrix M = [[A, B], [-conj(B), conj(A)]] of order 2b commutes
    with J(x, y) = (conj y, -conj x), where J^2 = -1, so each of its eigenvalues appears twice.
    A reflector I - w w^* - Jw (Jw)^* commutes with J too, and b - 1 of them reduce M to a real
    symmetric tridiagonal of order b (Dongarra, Gabriel, Koelling & Wilkinson, Linear Algebra
    Appl. 60 (1984) 27-42).  Step k's reflector maps column k below the diagonal onto a multiple
    of its first quaternion entry; the off-diagonal entry it leaves has the column's norm as
    modulus, and a diagonal quaternion rescaling makes it real.  Only M's top rows, g, are stored
    and updated, in place: the bottom rows are J's image of them, so M (w, Jw) is read off the two
    products g (w, Jw).  np.vecdot forms both from one read of each trailing row, where a matrix
    product with two columns first packs the whole trailing part.  Reflectors are accumulated
    _KRAMERS_PANEL at a time as the pending update u v of g's trailing part.  A step corrects its
    pivot row and its products for that update and writes its vectors straight into u and v, so
    it allocates no stack.  Each panel applies the update to the trailing rows by one product of
    inner order 4 _KRAMERS_PANEL, a slab of 4 _KRAMERS_PANEL rows at a time (3 MB at order 729).
    """
    n = len(g)
    d, e = np.empty(n), np.zeros(n - 1)
    r = np.empty((n, 2), dtype=complex)
    for k0 in range(0, n - 1, _KRAMERS_PANEL):
        k1 = min(k0 + _KRAMERS_PANEL, n - 1)
        u = np.zeros((n - k0, 4 * (k1 - k0)), dtype=complex)  # its rows are g's rows k0..
        v = np.zeros((4 * (k1 - k0), 2 * (n - k0)), dtype=complex)  # its columns g's columns 2 k0..
        for k in range(k0, k1):
            j, s, m = k - k0, 4 * (k - k0), n - 1 - k
            # M -= W q^* + q W^* with W = (w, Jw) and q = (q, Jq), on g's rows: u v.  The step's
            # rows of v are conj(q, Jq, w, Jw), and conj(J x) = J conj(x) fills the odd ones.
            vk = v[s:s + 4, 2 * j + 2:]
            wj, cw, cq = vk[2:], vk[2], vk[0]  # np.vecdot conjugates wj back to (w, Jw)
            d[k] = (g[k, 2 * k] - u[j, :s] @ v[:s, 2 * j]).real
            np.subtract(g[k, 2 * k + 2:], np.matmul(u[j, :s], v[:s, 2 * j + 2:], out=cw), out=cw)
            sigma = e[k] = np.linalg.norm(cw)  # cw is conj of column k below the diagonal
            rho = math.hypot(abs(cw[0]), abs(cw[1]))
            if rho > 0.0:
                cw[:2] *= 1.0 + sigma / rho
            else:
                cw[0] = sigma
            if sigma > 0.0:  # then |w|^2 = 2 sigma (sigma + rho) becomes 2
                cw /= math.sqrt(sigma)
                cw /= math.sqrt(sigma + rho)
            np.conjugate(cw[1::2], out=vk[3, 0::2])
            np.negative(np.conjugate(cw[0::2], out=vk[3, 1::2]), out=vk[3, 1::2])
            rk = np.vecdot(wj, g[k + 1:, 2 * k + 2:][:, None, :], out=r[:m])  # g (w, Jw)
            if s:
                rk -= u[j + 1:, :s] @ np.vecdot(wj, v[:s, 2 * j + 2:][:, None, :])
            np.conjugate(rk[:, 0], out=cq[0::2])  # conj(M w); M w interleaves g w and conj(g Jw)
            cq[1::2] = rk[:, 1]
            # conj(q), q = M w - (w^* M w / 2) w, with vk[1] as scratch until it takes conj(Jq)
            cq -= np.multiply(cw, 0.5 * np.vdot(cw, cq).real, out=vk[1])
            np.conjugate(cq[1::2], out=vk[1, 0::2])
            np.negative(np.conjugate(cq[0::2], out=vk[1, 1::2]), out=vk[1, 1::2])
            np.conjugate(vk[2:, 0::2].T, out=u[j + 1:, s:s + 2])  # w, Jw on g's rows
            np.conjugate(vk[:2, 0::2].T, out=u[j + 1:, s + 2:s + 4])  # q, Jq
        lead, slab = k1 - k0, 4 * _KRAMERS_PANEL
        for lo in range(k1, n, slab):
            g[lo:lo + slab, 2 * k1:] -= u[lo - k0:lo - k0 + slab] @ v[:, 2 * lead:]
    d[-1] = g[-1, -2].real
    return d, e


def _tridiagonal_eigvalsh(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric tridiagonal with diagonal d and off-diagonal e."""
    n = len(d)
    t = np.zeros((n, n))
    t.flat[::n + 1] = d
    t.flat[1::n + 1] = e
    return np.linalg.eigvalsh(t, UPLO="U")


def _eigvalsh2(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (k, 2, 2) stack of Hermitian matrices, in closed form.

    (a + d)/2 -+ hypot((a - d)/2, |b|), reading the real diagonal and the
    lower entry b = h[1, 0] as eigvalsh does.  On 531441 such matrices,
    the order-2 blocks of cutoff 40 for a constant-coefficient operator,
    eigvalsh (one LAPACK call per matrix) took 0.30 s and this 0.02 s
    (2-CPU Xeon VM, one BLAS thread).
    """
    a, d = h[:, 0, 0].real, h[:, 1, 1].real
    mid = 0.5 * (a + d)
    rad = np.hypot(0.5 * (a - d), np.abs(h[:, 1, 0]))
    return np.stack([mid - rad, mid + rad], axis=1)


def _number_pair(value, name: str) -> tuple:
    """value as two floats (lo, hi); anything else, a string too, is refused with InputError."""
    pair = () if isinstance(value, str) or not np.iterable(value) else tuple(value)
    if len(pair) != 2 or not all(map(is_number, pair)):
        raise InputError(f"{name} must be a pair (lo, hi) of numbers, got {value!r}")
    return float(pair[0]), float(pair[1])


def galerkin_spectrum(op: FirstOrderOperator, mode_cutoff: int, window=None) -> SpectrumTable:
    """Eigenvalues of the operator projected on plane waves |m|_inf <= cutoff.

    The projected matrix is assembled from the exact Fourier coefficients of the symbol (a
    band-limited convolution), all read through one _GalerkinTable.  It is exactly block-diagonal
    over the cosets of the lattice spanned by their Fourier support, each block solved on its own.
    Self-adjointness is gated on the table before any block is assembled ("hermiticity_residual").

    Two solves.  Blocks of one size go in batches of up to _BATCH_BYTES, their lower triangles
    solved by eigvalsh (order 2 in closed form); a batch holds only its matrices and eigvalsh's
    copy of them.  A block solved alone (order above 362) whose coset is its own mirror image
    takes the quaternion-pair path instead when the operator commutes with the spinor time
    reversal J = i s^2 conj (m -> -m), J^2 = -1, as every massless Dirac operator does, gauged or
    shifted by a real scalar.  Its eigenvalues then come in equal pairs (Kramers): the table
    assembles half its entries, and _kramers_tridiagonal reduces them in place to a real
    tridiagonal, with no eigvalsh copy.  The path is taken when the table's time-reversal defect
    (metadata "time_reversal_defect") is at most _KRAMERS_TOL; "kramers_blocks" counts its blocks.

    A block of order above _DENSE_ORDER_BUDGET is refused before anything is allocated.  So is a
    mode cube of more than _Q_LENGTH_BUDGET modes (cutoff 81 and up): the cube and its coset
    labels take about 80 bytes per mode, and cutoff 80 takes 5.8 s and a peak RSS of 355 MB on the
    Dirac operator of standard_frame(8) (2-CPU Xeon VM, one BLAS thread).  Only eigenvalues inside
    `window` are tabulated; the window must sit inside the reliable zone |lambda| <= mode_cutoff / 2.
    Degenerate eigenvalues are clustered at tolerance _CLUSTER_TOL.
    """
    from .operators import FirstOrderOperator  # here, so exact tables load no operator code
    expect_type(op, FirstOrderOperator, "op")
    if not is_number(mode_cutoff, integral=True) or mode_cutoff < 1:
        raise InputError(f"mode_cutoff must be at least 1 and an integer, got {mode_cutoff!r}")
    c = int(mode_cutoff)
    if (2 * c + 1) ** 3 > _Q_LENGTH_BUDGET:
        raise InputError(f"Galerkin cutoff {c} needs a cube of (2 cutoff + 1)^3 = {(2 * c + 1) ** 3} "
                         f"modes, over the budget of {_Q_LENGTH_BUDGET}; lower the cutoff")
    zone = 0.5 * c
    lo, hi = (-zone, zone) if window is None else _number_pair(window, "window")
    if not lo < hi:
        raise InputError(f"window must be a nonempty interval, got {window}")
    if not -zone - 1e-12 <= lo < hi <= zone + 1e-12:
        raise InputError(
            f"window {window} exceeds the reliable zone [-{zone}, {zone}] "
            f"at cutoff {mode_cutoff}; raise the cutoff"
        )

    table = _GalerkinTable(op, c)
    defect, scale = table.hermiticity_defect()
    herm = gate("projected matrix is not Hermitian; the zeroth-order coefficient is "
                "inconsistent with formal self-adjointness", defect.ravel(), 1e-10 * max(1.0, scale))
    delta_j = table.time_reversal_defect()
    parts, kramers = [], 0
    for group in table.groups:
        b = group.shape[1]
        step = max(1, _BATCH_BYTES // (16 * (2 * b) ** 2))
        for first in range(0, len(group), step):
            idx = group[first:first + step]
            if step == 1 and delta_j <= _KRAMERS_TOL and table.self_conjugate(idx[0]):
                # the pair is dropped as the reduction returns, before its tridiagonal is solved
                d, e = _kramers_tridiagonal(table.pair(idx[0]))
                parts.append(np.repeat(_tridiagonal_eigvalsh(d, e), 2))
                kramers += 1
            else:
                h = table.blocks(idx)
                parts.append((_eigvalsh2(h) if b == 1 else np.linalg.eigvalsh(h)).ravel())
                del h  # before the next batch is assembled
    eigs = np.concatenate(parts)
    eigs.sort()  # in place: np.sort would hold a third copy beside parts and eigs

    # pad by the cluster tolerance so a degenerate cluster sitting on a
    # window edge is kept or dropped whole, never split
    inside = eigs[(eigs >= lo - _CLUSTER_TOL) & (eigs <= hi + _CLUSTER_TOL)]
    vals, mults = _cluster(inside, _CLUSTER_TOL)
    return SpectrumTable(
        values=vals,
        multiplicities=mults,
        provenance="galerkin",
        coverage=(lo, hi),
        metadata={
            "mode_cutoff": c,
            "matrix_order": 2 * len(table.modes),
            "block_count": sum(len(g) for g in table.groups),
            "max_block_order": 2 * table.groups[-1].shape[1],
            "hermiticity_residual": herm,
            "time_reversal_defect": delta_j,
            "kramers_blocks": kramers,
            "cluster_tol": _CLUSTER_TOL,
        },
    )


def _cluster(sorted_vals: np.ndarray, tol: float):
    if len(sorted_vals) == 0:
        return np.empty(0), np.empty(0, dtype=int)
    breaks = np.nonzero(np.diff(sorted_vals) > tol)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [len(sorted_vals)]])
    vals = np.array([sorted_vals[a:b].mean() for a, b in zip(starts, ends)])
    mults = (ends - starts).astype(int)
    return vals, mults


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def _counts(table: SpectrumTable, lams, side: str = "left"):
    """Positive eigenvalues, with multiplicity, below each lambda (at or below for side="right")."""
    return table.positive_cumsum[np.searchsorted(table.values, lams, side=side)]


def _check_threshold(table: SpectrumTable, lam: float) -> None:
    if not (is_number(lam) and lam > 0.0):
        raise InputError(f"counting threshold lam must be positive, got {lam!r}")
    if lam > table.coverage[1] + 1e-12:
        raise InputError(
            f"lambda {lam} exceeds table coverage {table.coverage[1]}; "
            "the count would silently miss eigenvalues"
        )


def counting_function(table: SpectrumTable, lam: float) -> int:
    """N(lambda): eigenvalues (with multiplicity) strictly inside (0, lambda)."""
    _check_threshold(table, lam)
    return int(_counts(table, lam))


def counting_bounds(table: SpectrumTable, lam: float):
    """Counts on either side of the band lambda +- tol: (below, above, ambiguous).

    With tol = _ON_EIGENVALUE_TOL, below counts the eigenvalues in (0, lambda - tol)
    and above those in (0, lambda + tol], each once with its multiplicity.
    ambiguous = above > below flags a lambda (numerically) on an eigenvalue,
    where the sharp count is left for the caller to decide.
    """
    _check_threshold(table, lam)
    below = int(_counts(table, lam - _ON_EIGENVALUE_TOL))
    above = int(_counts(table, lam + _ON_EIGENVALUE_TOL, side="right"))
    return below, above, above > below


@dataclass(eq=False)
class CountingReport:
    """Two-term growth-law comparison for a spectrum table.

    The dense geometric grid drives the dyadic-window maxima and the
    remainder-exponent fit; the sparse octave samples (one per octave,
    at the window edges) give the headline scaled residual the way a
    dyadic sampling of the counting function sees it.
    """

    lambda_grid: np.ndarray
    counts: np.ndarray
    residuals: np.ndarray
    max_scaled_residual: float
    octave_lambdas: np.ndarray
    octave_scaled_residuals: np.ndarray
    window_edges: list
    window_maxima: list
    decreasing: bool
    fitted_exponent: float
    a_global: float
    b_global: float


def _tie_free(lams: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Nudge sample points off eigenvalues so strict counts are unambiguous."""
    v = np.concatenate([[-np.inf], values, [np.inf]])
    j = np.searchsorted(v, lams)
    near = np.minimum(v[j] - lams, lams - v[j - 1]) <= _ON_EIGENVALUE_TOL
    return np.where(near, lams + _NUDGE, lams)


def _exact_window_max(table: SpectrumTable, a: float, b: float, left: float, right: float) -> float:
    """Exact sup of |N - a l^3 - b l^2| / l^2 over [left, right].

    N is a right-continuous step function and the scaled residual is
    monotone between spectral points, so the sup is attained at a
    window edge or at a one-sided limit at an eigenvalue; those are
    evaluated exactly.
    """
    v = table.values
    pts = np.concatenate([[left, right], v[(v > left) & (v < right)]])
    below = _counts(table, pts)
    above = _counts(table, pts, side="right")
    model = a * pts**3 + b * pts**2
    return float(
        max(
            (np.abs(below - model) / pts**2).max(),
            (np.abs(above - model) / pts**2).max(),
        )
    )


def asymptotic_comparison(
    table: SpectrumTable,
    a_global: float,
    b_global: float,
    lambda_range=(5.0, 40.0),
) -> CountingReport:
    """Residuals of N(lambda) against a*lambda^3 + b*lambda^2.

    Samples geometrically, _SAMPLES_PER_OCTAVE per octave (sample
    points landing on an eigenvalue are nudged just above it, where the
    strict count is unambiguous; a range starting below _COMPARE_FLOOR,
    3.42e-05, is refused).  Reports |residual|/lambda^2 maxima on dyadic
    windows -- their decay is the sharp-remainder diagnostic -- and a
    log-log least-squares growth exponent of |residual|.
    """
    for name, value in (("a_global", a_global), ("b_global", b_global)):
        if not is_number(value):
            raise InputError(f"{name} must be a Real, got {type(value).__name__}")
    lo, hi = _number_pair(lambda_range, "lambda_range")
    if not (0.0 < lo < hi):
        raise InputError("lambda_range must be positive and increasing")
    if lo < _COMPARE_FLOOR:
        raise InputError(f"lambda_range must start at {_COMPARE_FLOOR:.3g} or above, got {lo:g}: "
                         f"below it a sample moved {_NUDGE:g} off an eigenvalue can pass the next")
    _check_threshold(table, hi)
    n_oct = np.log2(hi / lo)
    n_dense = int(np.floor(_SAMPLES_PER_OCTAVE * n_oct)) + 1
    lams = lo * 2.0 ** (np.arange(n_dense) / _SAMPLES_PER_OCTAVE)
    lams = np.minimum(lams, hi)
    lams = lams[np.r_[True, np.diff(lams) > 0.0]]  # drop the repeats of hi; lams is sorted
    lams = _tie_free(lams, table.values)
    counts = _counts(table, lams).astype(float)
    model = a_global * lams**3 + b_global * lams**2
    resid = counts - model
    scaled = np.abs(resid) / lams**2

    edges = []
    maxima = []
    left = lo
    while left < hi:
        right = min(2.0 * left, hi)
        edges.append((left, right))
        maxima.append(_exact_window_max(table, a_global, b_global, left, right))
        left = right
    decreasing = all(maxima[i + 1] <= maxima[i] for i in range(len(maxima) - 1))
    big = np.abs(resid) > 1e-9
    if big.sum() >= 2:
        slope = np.polyfit(np.log(lams[big]), np.log(np.abs(resid[big])), 1)[0]
    else:
        slope = 0.0
    return CountingReport(
        lambda_grid=lams,
        counts=counts,
        residuals=resid,
        max_scaled_residual=float(scaled.max()),
        octave_lambdas=lams[::_SAMPLES_PER_OCTAVE],  # every octave sample is a dense one
        octave_scaled_residuals=scaled[::_SAMPLES_PER_OCTAVE],
        window_edges=edges,
        window_maxima=maxima,
        decreasing=bool(decreasing),
        fitted_exponent=float(slope),
        a_global=a_global,
        b_global=b_global,
    )


# ---------------------------------------------------------------------------
# mollified counting
# ---------------------------------------------------------------------------

def _unit_cdf():
    """Grid x on |x| <= 240 and the CDF F(x) of the width-1 bump kernel there, read-only.

    The kernel is defined through its Fourier transform
    rho_hat(t) = exp(1 - 1/(1 - t^2)) on |t| < 1, zero outside.  rho_hat
    is even, real and has unit mass, so
    F(x) = 1/2 + (1/pi) int_0^1 rho_hat(t) sin(xt)/t dt.  The trapezoid
    rule on 96 nodes converges faster than any power of the node spacing,
    because rho_hat is flat at t = 1; its aliases sit 2 pi 96 ~ 603 away,
    past the sampled range, beyond which F is 0 or 1 to within 7e-10.  F
    is sampled every 0.01, where linear interpolation is good to 6.7e-7.
    The integral runs on x >= 0 only; F(-x) = 1 - F(x) fills in the rest.
    With x = 0.01 (b + 155 c), each sin(xt) is the imaginary part of
    exp(0.01i b t) exp(1.55i c t), so the 24001 x 95 sines come from one
    complex (155 x 95) @ (95 x 156) product.
    """
    h = 1.0 / 96
    t = np.arange(1, 96) * h  # inner nodes; the node t = 1 carries rho_hat = 0
    w = h * np.exp(1.0 - 1.0 / (1.0 - t**2)) / t
    x = np.linspace(0.0, 240.0, 24001)
    fine = w * np.exp(0.01j * np.outer(np.arange(155), t))
    coarse = np.exp(1.55j * np.outer(t, np.arange(156)))
    sines = (fine @ coarse).imag.T.ravel()[: len(x)]  # sum_k w_k sin(x_j t_k), j = b + 155 c
    # sin(xt)/t tends to x at the node t = 0, whose trapezoid weight is h/2
    f = 0.5 + (0.5 * h * x + sines) / np.pi
    grid = np.concatenate([-x[:0:-1], x]), np.concatenate([1.0 - f[:0:-1], f])
    for a in grid:
        a.flags.writeable = False
    return grid


_UNIT_CDF = _unit_cdf()  # (x, F), read-only, built at import in about 1 ms


def mollified_count(
    table: SpectrumTable, lam: float, kernel_width: float = _DEFAULT_KERNEL_WIDTH
) -> float:
    """Counting function convolved with the band-limited bump kernel.

    kernel_width is the Fourier support half-width tau and must stay
    below 2*pi (the torus length spectrum floor); the default keeps a
    little margin.  The width-tau kernel's CDF is F(tau mu), so one
    sampled width-1 CDF F serves every tau in (0, 2*pi).  The table must
    reach a kernel tail 45.75/tau past lambda.  The kernel is not
    positive, so its CDF overshoots 1 and settles slowly: past the tail
    it stays within 6.2e-5 of 1, not closer.  F is sampled out to a
    reach of 240/tau either side of lambda; eigenvalues further below
    weigh 1 and are read off the table's cumulative count, those further
    above weigh 0.
    """
    if not (is_number(kernel_width) and 0.0 < kernel_width < 2.0 * np.pi):
        raise InputError(f"kernel_width must lie in (0, 2*pi), got {kernel_width!r}")
    if not (is_number(lam) and lam > 0.0):
        raise InputError(f"lam must be positive, got {lam!r}")
    tau = float(kernel_width)
    tail = 45.75 / tau
    if lam + tail > table.coverage[1] + 1e-12:
        raise InputError(
            f"table coverage {table.coverage[1]} is too short for lambda {lam} "
            f"plus kernel tail {tail:.3g}"
        )
    x, cdf = _UNIT_CDF
    reach = x[-1] / tau
    first = np.searchsorted(table.values, 0.0, side="right")
    lo = max(first, np.searchsorted(table.values, lam - reach))
    hi = np.searchsorted(table.values, lam + reach, side="right")
    phi = np.interp(tau * (lam - table.values[lo:hi]), x, cdf, left=0.0, right=1.0)
    return float(table.positive_cumsum[lo] + table.multiplicities[lo:hi] @ phi)
