"""Spectra on the torus and the 3-sphere: exact tables, Galerkin, counting.

Exact reference spectra: the flat-torus Dirac operator for any of the
eight spin structures (encoded as half-integer lattice shifts) and the
round-sphere Dirac operator.  Numerical spectra come from a plane-wave
Galerkin projection of a first-order operator; for band-limited
coefficients the matrix elements are exact Fourier data, so interior
eigenvalues converge extremely fast and are reliable in a window well
inside the mode cutoff.  The projected matrix splits exactly into
blocks, one per coset of the lattice spanned by the coefficients'
Fourier support, and each block is solved on its own.  Requests whose
dense blocks or exact-table histograms exceed a fixed memory budget
are refused before anything is allocated.

Counting utilities: the sharp eigenvalue counting function (strict
inequality, ambiguity surfaced rather than resolved), comparison
against a two-term growth law, and mollified counting with a
compactly-band-limited bump kernel.  The kernel scales with its width,
so one sampled width-1 CDF serves every width in (0, 2*pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, gate
from .fields import _integer_modes
from .operators import FirstOrderOperator

_CLUSTER_TOL = 1e-7
_ON_EIGENVALUE_TOL = 1e-9  # a lambda this close to an eigenvalue sits on it
_DEFAULT_RELIABLE_FRACTION = 0.5  # of the Galerkin mode cutoff
_DEFAULT_KERNEL_WIDTH = 6.0  # mollifier Fourier half-width, a margin below 2*pi
_SAMPLES_PER_OCTAVE = 24  # dense geometric sampling of asymptotic_comparison
_FOURIER_TOL = 1e-13  # smaller Fourier coefficients of operator data are dropped

# Largest Hermitian block solved densely: order 8000 is about 1 GB of
# complex128.  Larger Galerkin blocks are refused before allocation.
_DENSE_ORDER_BUDGET = 8000
# Longest histogram of q = 4|m - s|^2 an exact table builds (lambda_max
# up to 1024); it and its table take about 40 bytes per entry.  The same
# budget caps a sphere table's length and a lattice_count plane.
_Q_LENGTH_BUDGET = 1 << 22


@dataclass(frozen=True)
class SpinStructure:
    """One of the eight flat spin structures, as a lattice shift in {0, 1/2}^3."""

    shift: tuple

    def __post_init__(self):
        s = tuple(float(x) for x in self.shift)
        if len(s) != 3 or any(x not in (0.0, 0.5) for x in s):
            raise InputError(f"spin-structure shift must lie in {{0, 1/2}}^3, got {self.shift}")
        object.__setattr__(self, "shift", s)

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
        if len(v) > 1 and np.any(np.diff(v) <= 0.0):
            raise InputError("eigenvalues must be strictly increasing")
        if np.any(m <= 0):
            raise InputError("multiplicities must be positive")
        self.values = v
        self.multiplicities = m
        self.positive_cumsum = np.concatenate([[0], np.cumsum(np.where(v > 0.0, m, 0))])

    def __len__(self):
        return len(self.values)


def _coerce_shift(shift) -> SpinStructure:
    if isinstance(shift, SpinStructure):
        return shift
    return SpinStructure(tuple(shift))


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
    _Q_LENGTH_BUDGET is refused.
    """
    s = _coerce_shift(shift)
    if not 0.0 < lambda_max < np.inf:
        raise InputError(f"lambda_max must be positive and finite, got {lambda_max}")
    qmax = int(np.floor((2.0 * lambda_max) ** 2))
    if qmax + 1 > _Q_LENGTH_BUDGET:
        raise InputError(
            f"lambda_max {lambda_max} needs a histogram of q = 4|m - s|^2 of length "
            f"{qmax + 1}, over the budget of {_Q_LENGTH_BUDGET}; lower lambda_max"
        )
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
    if not 0.0 < lambda_max < np.inf:
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
    O(radius^2 log radius); a plane of more than _Q_LENGTH_BUDGET points
    is refused before allocation.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (3,) or not np.isfinite(center).all() or not 0.0 < radius < np.inf:
        raise InputError(f"center must be a finite 3-vector and radius positive and finite, "
                         f"got center {center.tolist()} and radius {radius}")
    lo = np.floor(center - radius)
    hi = np.ceil(center + radius)
    plane = (hi[1] - lo[1] + 1) * (hi[2] - lo[2] + 1)
    if plane > _Q_LENGTH_BUDGET:
        raise InputError(f"radius {radius} needs a plane of {plane:.0f} lattice points, over "
                         f"the budget of {_Q_LENGTH_BUDGET}; lower radius")
    lo, hi = lo.astype(int), hi.astype(int)
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
    """Nonzero Fourier modes of the operator coefficients.

    Returns (ks, sig_hats, a0_hats): integer mode vectors (K, 3) and
    the corresponding coefficient matrices.  Content in a Nyquist bin
    cannot be assembled faithfully (the mode sign is ambiguous): above
    1e-9 of the coefficient scale we refuse to proceed; below that it
    is discarded, shifting eigenvalues by no more than the dropped
    mass, which is negligible against the quadrature tolerances.
    """
    s = op.sigma.sigma
    n = s.shape[0]
    sig_hat = np.fft.fftn(s, axes=(0, 1, 2)) / n**3
    a0_hat = np.fft.fftn(op.a0, axes=(0, 1, 2)) / n**3
    mags = np.abs(sig_hat).reshape(n, n, n, -1).max(axis=-1)
    mags = np.maximum(mags, np.abs(a0_hat).reshape(n, n, n, -1).max(axis=-1))
    nz = np.nonzero(mags > _FOURIER_TOL)
    ks = _integer_modes(n)[np.stack(nz, axis=1)]
    nyquist = np.any(np.abs(ks) == n // 2, axis=1)
    gate("operator coefficients have content at the Nyquist mode; increase the grid resolution",
         mags[nz][nyquist], 1e-9 * max(1.0, float(mags.max())))
    keep = ~nyquist
    return ks[keep], sig_hat[nz][keep], a0_hat[nz][keep]


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
    Hermite basis, pivot by pivot, gives a canonical coset label.
    """
    rep = modes.copy()
    for row in _lattice_basis(ks):
        col = np.flatnonzero(row)[0]
        rep -= (rep[:, col] // row[col])[:, None] * row
    label = np.unique(rep, axis=0, return_inverse=True)[1].ravel()
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))
    sizes, n_modes = np.unique(size[order], return_counts=True)
    bounds = np.cumsum(n_modes)[:-1]
    return [idx.reshape(-1, b) for idx, b in zip(np.split(order, bounds), sizes)]


def _coset_matrices(m: np.ndarray, code: np.ndarray, slot: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Projected matrices of a batch of equal-size cosets, shape (batch, 2, b, 2, b).

    m holds the cosets' modes (batch, b, 3) and code their codes, whose
    differences address the support table slot.  Entry [p, i, q, j] is
    the [p, q] entry of sigma_hat(k) . m_j + a0_hat(k) with k = m_i - m_j;
    a k outside the support reads the zero column of coef.
    """
    sup = slot[code[:, :, None] - code[:, None, :]]
    mj = m[:, None, :, :]
    b = m.shape[1]
    h = np.empty((len(m), 2, b, 2, b), dtype=complex)
    for p in range(2):
        for q in range(2):
            out, cpq = h[:, p, :, q, :], coef[p, q]
            np.multiply(cpq[0][sup], mj[..., 0], out=out)
            out += cpq[1][sup] * mj[..., 1]
            out += cpq[2][sup] * mj[..., 2]
            out += cpq[3][sup]
    return h


def galerkin_spectrum(
    op: FirstOrderOperator,
    mode_cutoff: int,
    window=None,
    reliable_fraction: float = _DEFAULT_RELIABLE_FRACTION,
) -> SpectrumTable:
    """Eigenvalues of the operator projected on plane waves |m|_inf <= cutoff.

    The projected matrix is assembled from the exact Fourier
    coefficients of the symbol (a band-limited convolution).  It is
    exactly block-diagonal over the cosets of the lattice spanned by
    the coefficients' Fourier support; each block is assembled, checked
    Hermitian and solved densely on its own, and a block of order above
    _DENSE_ORDER_BUDGET is refused before anything is allocated.  Only
    eigenvalues inside `window` are tabulated; the window must sit
    inside the reliable zone |lambda| <= reliable_fraction * mode_cutoff,
    with reliable_fraction in (0, 1] so the zone never passes the cutoff.
    Degenerate eigenvalues are clustered at tolerance _CLUSTER_TOL.
    """
    if not isinstance(mode_cutoff, (int, np.integer)) or mode_cutoff < 1:
        raise InputError(f"mode_cutoff must be at least 1 and an integer, got {mode_cutoff!r}")
    if not 0.0 < reliable_fraction <= 1.0:
        raise InputError(f"reliable_fraction must lie in (0, 1], got {reliable_fraction}")
    zone = reliable_fraction * mode_cutoff
    if window is None:
        window = (-zone, zone)
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise InputError(f"window must be a nonempty interval, got {window}")
    if not -zone - 1e-12 <= lo < hi <= zone + 1e-12:
        raise InputError(
            f"window {window} exceeds the reliable zone [-{zone}, {zone}] "
            f"at cutoff {mode_cutoff}; raise the cutoff or reliable_fraction"
        )

    ks, sig_hats, a0_hats = _operator_fourier_data(op)
    c = mode_cutoff
    couples = np.all(np.abs(ks) <= 2 * c, axis=1)  # the rest never joins two cube modes
    ks, sig_hats, a0_hats = ks[couples], sig_hats[couples], a0_hats[couples]
    ax = np.arange(-c, c + 1)
    modes = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    nm = len(modes)
    groups = _coset_blocks(modes, ks)
    largest = groups[-1].shape[1]
    if 2 * largest > _DENSE_ORDER_BUDGET:
        coupled = "every mode" if largest == nm else f"{largest} of its {nm} modes"
        raise InputError(
            f"Galerkin cutoff {c} needs a dense block of order {2 * largest}, over the "
            f"budget of {_DENSE_ORDER_BUDGET}: the operator's Fourier support couples "
            f"{coupled} into one block; lower the cutoff"
        )

    # Support table over the differences k in [-2c, 2c]^3, addressed by the
    # mixed-radix code k @ radix, which is linear in k and unique in that box;
    # negative codes index from the end of slot.  Absent k read the last,
    # all-zero column of coef.
    span = 4 * c + 1
    radix = np.array([span * span, span, 1])
    slot = np.full(span**3, len(ks))
    slot[ks @ radix] = np.arange(len(ks))
    code = modes @ radix
    coef = np.zeros((2, 2, 4, len(ks) + 1), dtype=complex)
    coef[:, :, :3, :-1] = sig_hats.transpose(2, 3, 1, 0)
    coef[:, :, 3, :-1] = a0_hats.transpose(1, 2, 0)

    parts, herm, scale = [], 0.0, 1.0
    for group in groups:
        b = group.shape[1]
        # blocks of one size are solved together, up to one budget-order block's memory
        step = max(1, _DENSE_ORDER_BUDGET**2 // (2 * b) ** 2)
        for first in range(0, len(group), step):
            idx = group[first:first + step]
            h = _coset_matrices(modes[idx], code[idx], slot, coef)
            for p, q in ((0, 0), (0, 1), (1, 1)):
                gap = h[:, p, :, q, :] - h[:, q, :, p, :].conj().swapaxes(1, 2)
                herm = np.maximum(herm, np.abs(gap).max())  # a NaN is kept
            scale = max(scale, float(np.abs(h).max()))
            parts.append(np.linalg.eigvalsh(h.reshape(len(idx), 2 * b, 2 * b)).ravel())
    herm = gate("projected matrix is not Hermitian; the zeroth-order coefficient is "
                "inconsistent with formal self-adjointness", herm, 1e-10 * scale)
    eigs = np.sort(np.concatenate(parts))

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
            "mode_cutoff": mode_cutoff,
            "matrix_order": 2 * nm,
            "block_count": sum(len(g) for g in groups),
            "max_block_order": 2 * largest,
            "hermiticity_residual": herm,
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
    if not lam > 0.0:
        raise InputError(f"counting threshold lam must be positive, got {lam}")
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
    return np.where(near, lams + 1e-6, lams)


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
    strict count is unambiguous).  Reports |residual|/lambda^2 maxima
    on dyadic windows -- their decay is the sharp-remainder diagnostic
    -- and a log-log least-squares growth exponent of |residual|.
    """
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not (0.0 < lo < hi):
        raise InputError("lambda_range must be positive and increasing")
    _check_threshold(table, hi)
    n_oct = np.log2(hi / lo)
    n_dense = int(np.floor(_SAMPLES_PER_OCTAVE * n_oct)) + 1
    lams = lo * 2.0 ** (np.arange(n_dense) / _SAMPLES_PER_OCTAVE)
    lams = np.minimum(lams, hi)
    lams = _tie_free(np.unique(lams), table.values)
    counts = _counts(table, lams).astype(float)
    model = a_global * lams**3 + b_global * lams**2
    resid = counts - model
    scaled = np.abs(resid) / lams**2

    oct_lams = _tie_free(lo * 2.0 ** np.arange(int(np.floor(n_oct)) + 1), table.values)
    oct_counts = _counts(table, oct_lams).astype(float)
    oct_scaled = np.abs(oct_counts - a_global * oct_lams**3 - b_global * oct_lams**2) / oct_lams**2

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
        octave_lambdas=oct_lams,
        octave_scaled_residuals=oct_scaled,
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

_unit_cdf_grid = None  # (x, F), built by _unit_cdf on first use


def _unit_cdf():
    """Grid x on |x| <= 240 and the CDF F(x) of the width-1 bump kernel there.

    The kernel is defined through its Fourier transform
    rho_hat(t) = exp(1 - 1/(1 - t^2)) on |t| < 1, zero outside.  rho_hat
    is even, real and has unit mass, so
    F(x) = 1/2 + (1/pi) int_0^1 rho_hat(t) sin(xt)/t dt.  The trapezoid
    rule on 96 nodes converges faster than any power of the node spacing,
    because rho_hat is flat at t = 1; its aliases sit 2 pi 96 ~ 603 away,
    past the sampled range, beyond which F is 0 or 1 to within 7e-10.  F
    is sampled every 0.01, where linear interpolation is good to 6.7e-7.
    The integral runs on x >= 0 only; F(-x) = 1 - F(x) fills in the rest.
    """
    global _unit_cdf_grid
    if _unit_cdf_grid is None:
        h = 1.0 / 96
        t = np.arange(1, 96) * h  # inner nodes; the node t = 1 carries rho_hat = 0
        w = h * np.exp(1.0 - 1.0 / (1.0 - t**2)) / t
        x = np.linspace(0.0, 240.0, 24001)
        xt = np.outer(x, t)
        # sin(xt)/t tends to x at the node t = 0, whose trapezoid weight is h/2
        f = 0.5 + (0.5 * h * x + np.sin(xt, out=xt) @ w) / np.pi
        _unit_cdf_grid = np.concatenate([-x[:0:-1], x]), np.concatenate([1.0 - f[:0:-1], f])
    return _unit_cdf_grid


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
    tau = float(kernel_width)
    if not (0.0 < tau < 2.0 * np.pi):
        raise InputError(f"kernel width must lie in (0, 2*pi), got {tau}")
    if not lam > 0.0:
        raise InputError(f"lam must be positive, got {lam}")
    tail = 45.75 / tau
    if lam + tail > table.coverage[1] + 1e-12:
        raise InputError(
            f"table coverage {table.coverage[1]} is too short for lambda {lam} "
            f"plus kernel tail {tail:.2f}"
        )
    x, cdf = _unit_cdf()
    reach = x[-1] / tau
    first = np.searchsorted(table.values, 0.0, side="right")
    lo = max(first, np.searchsorted(table.values, lam - reach))
    hi = np.searchsorted(table.values, lam + reach, side="right")
    phi = np.interp(tau * (lam - table.values[lo:hi]), x, cdf, left=0.0, right=1.0)
    return float(table.positive_cumsum[lo] + table.multiplicities[lo:hi] @ phi)
