"""Exact spectra, Galerkin tables, counting and mollified counting."""

import numpy as np
import pytest

import diracweyl as dw
from diracweyl.errors import ConsistencyError, InputError
from diracweyl.spectra import (_COMPARE_FLOOR, _cluster, _coset_blocks, _eigvalsh2, _lattice_basis,
                              _tie_free)

TRIVIAL = dw.SpinStructure((0.0, 0.0, 0.0))
HALF3 = dw.SpinStructure((0.0, 0.0, 0.5))
SQ2, SQ3 = np.sqrt(2.0), np.sqrt(3.0)


def _as_dict(table):
    return {round(float(v), 9): int(m) for v, m in zip(table.values, table.multiplicities)}


# --- spin structures -----------------------------------------------------------

def test_all_spin_structures_enumerates_eight():
    structures = dw.all_spin_structures()
    assert len(structures) == 8
    assert len({s.shift for s in structures}) == 8
    assert TRIVIAL in structures


def test_spin_structure_entries_restricted():
    with pytest.raises(InputError):
        dw.SpinStructure((0.3, 0.0, 0.0))


# --- exact tables ----------------------------------------------------------------

class TestTorusExact:
    def test_trivial_shift_head(self):
        """First eigenvalue groups of the untwisted torus, by hand."""
        got = _as_dict(dw.torus_exact_spectrum(TRIVIAL, 2.05))
        assert got[0.0] == 2
        for v, m in ((1.0, 6), (round(SQ2, 9), 12), (round(SQ3, 9), 8), (2.0, 6)):
            assert got[v] == m
            assert got[-v] == m

    def test_half_shift_has_no_zero_mode(self):
        table = dw.torus_exact_spectrum(HALF3, 2.0)
        assert np.abs(table.values).min() > 0.49
        got = _as_dict(table)
        assert got[0.5] == 2
        assert got[-0.5] == 2
        assert got[1.5] == 10

    def test_spectrum_symmetric(self):
        for shift in (TRIVIAL, HALF3):
            table = dw.torus_exact_spectrum(shift, 5.0)
            got = _as_dict(table)
            assert all(got[-v] == m for v, m in got.items())

    def test_coverage_and_provenance(self):
        table = dw.torus_exact_spectrum(TRIVIAL, 7.0)
        assert table.provenance.startswith("torus-exact")
        assert table.coverage[1] >= 7.0
        assert (table.multiplicities > 0).all()
        assert (np.diff(table.values) > 0).all()


def _meshgrid_exact(shift, lambda_max):
    """The exact table enumerated over the full (2 lambda + 1)^3 box."""
    axes = [np.arange(int(np.floor(sa - lambda_max)), int(np.ceil(sa + lambda_max)) + 1) for sa in shift]
    m1, m2, m3 = np.meshgrid(*axes, indexing="ij")
    q = ((2 * m1 - int(2 * shift[0])) ** 2 + (2 * m2 - int(2 * shift[1])) ** 2
         + (2 * m3 - int(2 * shift[2])) ** 2).ravel()
    counts = np.bincount(q[q <= int(np.floor((2.0 * lambda_max) ** 2))])
    vals, mults = [], []
    for qi in np.nonzero(counts)[0][::-1]:
        if qi:
            vals.append(-0.5 * np.sqrt(float(qi)))
            mults.append(int(counts[qi]))
    if shift == (0.0, 0.0, 0.0):
        vals.append(0.0)
        mults.append(2 * int(counts[0]))
    for qi in np.nonzero(counts)[0]:
        if qi:
            vals.append(0.5 * np.sqrt(float(qi)))
            mults.append(int(counts[qi]))
    return np.array(vals), np.array(mults)


def _meshgrid_lattice_count(center, radius):
    center = np.asarray(center, dtype=float)
    lo = np.floor(center - radius).astype(int)
    hi = np.ceil(center + radius).astype(int)
    m1, m2, m3 = np.meshgrid(*[np.arange(lo[a], hi[a] + 1) for a in range(3)], indexing="ij")
    d2 = (m1 - center[0]) ** 2 + (m2 - center[1]) ** 2 + (m3 - center[2]) ** 2
    return int((np.sqrt(d2) < radius).sum())


@pytest.mark.parametrize("lam", [0.7, 5.5, 45.0])
def test_exact_tables_match_box_enumeration(lam):
    for structure in dw.all_spin_structures():
        table = dw.torus_exact_spectrum(structure, lam)
        values, mults = _meshgrid_exact(structure.shift, lam)
        assert np.array_equal(table.values, values)
        assert np.array_equal(table.multiplicities, mults)


def test_lattice_count_matches_box_enumeration():
    rng = np.random.default_rng(7)
    cases = [(rng.uniform(-3.0, 3.0, 3), rng.uniform(0.2, 9.0)) for _ in range(40)]
    for center in ((0.0, 0.0, 0.0), (0.5, 0.0, 0.5), (0.5, 0.5, 0.5), (0.0, 0.0, 0.5)):
        for d2 in (0.25, 0.5, 1.0, 1.25, 2.0, 2.75, 3.0, 9.0, 14.25, 26.0):
            cases.append((center, np.sqrt(d2)))  # the sphere passes through lattice points
    for center, radius in cases:
        assert dw.lattice_count(center, radius) == _meshgrid_lattice_count(center, radius)


def test_exact_table_memory_is_quadratic(peak_mb):
    """Enumerating the (2 lambda + 1)^3 box peaks at 326 MB for this call."""
    assert peak_mb(lambda: dw.torus_exact_spectrum(HALF3, 100.0)) <= 20.0


def test_exact_table_over_budget_refused():
    with pytest.raises(InputError, match="budget"):
        dw.torus_exact_spectrum(TRIVIAL, 1100.0)


def test_lattice_count_reference_values():
    assert dw.lattice_count((0, 0, 0), 1.0) == 1
    assert dw.lattice_count((0, 0, 0), np.sqrt(2.0)) == 7
    assert dw.lattice_count((0, 0, 0), 2.0) == 27
    assert dw.lattice_count((0, 0, 0.5), 0.6) == 2


def test_lattice_count_admits_every_radius_the_exact_table_admits():
    """r = 1023.3 is inside the exact tables' range (lambda_max < 1024) but
    its plane, 2049^2 points, is just over _Q_LENGTH_BUDGET.  The number is
    counting_function(torus_exact_spectrum((0, 0, 0), 1023.4), 1023.3) + 1,
    criterion 5's identity; that table takes about 13 s to build, so the
    test keeps only its count."""
    assert dw.lattice_count((0, 0, 0), 1023.3) == 4488468719


@pytest.mark.parametrize("shift,center", [(TRIVIAL, (0, 0, 0)), (HALF3, (0, 0, 0.5))])
def test_counting_matches_lattice_count(shift, center):
    """N(lambda) is lattice counting: +1 offset for the trivial shift
    (the zero mode sits outside the open interval, the origin inside)."""
    table = dw.torus_exact_spectrum(shift, 12.0)
    offset = 1 if shift == TRIVIAL else 0
    rng = np.random.default_rng(0)
    for lam in rng.uniform(0.3, 11.5, size=60):
        assert dw.counting_function(table, lam) + offset == dw.lattice_count(center, lam)


def test_counting_function_guards():
    table = dw.torus_exact_spectrum(TRIVIAL, 5.0)
    assert dw.counting_function(table, 2.0) == 26
    with pytest.raises(InputError, match="positive"):
        dw.counting_function(table, 0.0)
    with pytest.raises(InputError, match="coverage"):
        dw.counting_function(table, 9.0)


def test_counting_bounds_flags_spectral_points():
    table = dw.torus_exact_spectrum(TRIVIAL, 5.0)
    below, above, ambiguous = dw.counting_bounds(table, 2.0)
    assert (below, above, ambiguous) == (26, 32, True)
    below, above, ambiguous = dw.counting_bounds(table, 1.9)
    assert (below, above, ambiguous) == (26, 26, False)


@pytest.mark.parametrize("lam,want", [
    (2.0 + 5e-10, (2, 6, True)),
    (1.0 + 5e-10, (0, 2, True)),
    (1.0 - 5e-10, (0, 2, True)),
    (1.5, (2, 2, False)),
    (2.5, (6, 6, False)),
])
def test_counting_bounds_count_each_eigenvalue_once(lam, want):
    """below counts (0, lam - tol), above counts (0, lam + tol]: an eigenvalue
    in [lam - tol, lam) was counted twice, giving (6, 10, True) at 2 + 5e-10."""
    table = dw.SpectrumTable(np.array([-1.0, 1.0, 2.0]), np.array([2, 2, 4]), "test", (-5.0, 5.0))
    assert dw.counting_bounds(table, lam) == want


def test_sharp_counts_read_the_stored_cumulative_count(peak_mb):
    """2e6 unit eigenvalues evenly spaced on (0, 1100]: each call took the
    cumulative sum of the whole table and traced 32.0 MB.  The table now
    holds that sum from construction, so a count is one lookup."""
    n = 2_000_000
    values = np.arange(1, n + 1) * (1100.0 / n)
    table = dw.SpectrumTable(values, np.ones(n, dtype=int), "even", (-1100.0, 1100.0))
    want = int(np.count_nonzero(values < 1000.0))
    assert dw.counting_function(table, 1000.0) == want
    assert dw.counting_bounds(table, 1000.0) == (want, want, False)
    for name, call in (
        ("counting_function", lambda: dw.counting_function(table, 1000.0)),
        ("counting_bounds", lambda: dw.counting_bounds(table, 1000.0)),
    ):
        peak = peak_mb(call)
        print(f"{name} traces {peak:.3f} MB")
        assert peak < 1.0


class TestSphereExact:
    def test_multiplicities(self):
        got = _as_dict(dw.sphere_exact_spectrum(4.0))
        assert got[1.5] == 2
        assert got[2.5] == 6
        assert got[3.5] == 12
        assert got[-3.5] == 12
        assert 0.5 not in got  # k = 0 carries no modes

    def test_cubic_counting_identity(self):
        table = dw.sphere_exact_spectrum(101.0)
        for lam in (2, 3, 10, 57, 100):
            assert dw.counting_function(table, float(lam)) == (lam**3 - lam) // 3


# --- spectrum table container -----------------------------------------------------

def test_spectrum_table_validation():
    with pytest.raises(InputError, match="increasing"):
        dw.SpectrumTable(
            values=np.array([1.0, 1.0]),
            multiplicities=np.array([2, 2]),
            provenance="test",
            coverage=(-2.0, 2.0),
        )
    with pytest.raises(InputError, match="positive"):
        dw.SpectrumTable(
            values=np.array([1.0]),
            multiplicities=np.array([0]),
            provenance="test",
            coverage=(-2.0, 2.0),
        )


# --- Galerkin ---------------------------------------------------------------------

def _match_tables(got, want_vals, want_mults, tol):
    assert len(got.values) == len(want_vals)
    assert np.abs(got.values - want_vals).max() < tol
    assert (got.multiplicities == want_mults).all()


def _dense_galerkin(op, cutoff, window, cluster_tol=1e-7, ball=False):
    """One dense matrix over the whole cube basis |m|_inf <= cutoff (or the
    ball |m|_2 <= cutoff), assembled mode vector by mode vector."""
    n = op.sigma.sigma.shape[0]
    sig_hat = np.fft.fftn(op.sigma.sigma, axes=(0, 1, 2)) / n**3
    a0_hat = np.fft.fftn(op.a0, axes=(0, 1, 2)) / n**3
    mags = np.maximum(
        np.abs(sig_hat).reshape(n, n, n, -1).max(axis=-1),
        np.abs(a0_hat).reshape(n, n, n, -1).max(axis=-1),
    )
    freq = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    side = 2 * cutoff + 1
    ax = np.arange(-cutoff, cutoff + 1)
    mprime = np.stack([g.ravel() for g in np.meshgrid(ax, ax, ax, indexing="ij")], axis=1)
    position = np.arange(len(mprime))
    if ball:
        in_ball = (mprime**2).sum(axis=1) <= cutoff**2
        mprime = mprime[in_ball]
        position = np.where(in_ball, np.cumsum(in_ball) - 1, -1)
    nm = len(mprime)
    h4 = np.zeros((nm, 2, nm, 2), dtype=complex)
    src = np.arange(nm)
    for i1, i2, i3 in np.argwhere(mags > 1e-13):
        k = np.array([freq[i1], freq[i2], freq[i3]])
        if np.any(np.abs(k) == n // 2):
            continue
        tgt = mprime + k
        ok = np.all(np.abs(tgt) <= cutoff, axis=1)
        code = ((tgt[ok, 0] + cutoff) * side + (tgt[ok, 1] + cutoff)) * side + (tgt[ok, 2] + cutoff)
        tgt_idx = position[code]
        ok[ok] = tgt_idx >= 0
        tgt_idx = tgt_idx[tgt_idx >= 0]
        blocks = np.einsum("apq,sa->spq", sig_hat[i1, i2, i3], mprime[ok].astype(float))
        h4[tgt_idx, :, src[ok], :] += blocks + a0_hat[i1, i2, i3]
    eigs = np.linalg.eigvalsh(h4.reshape(2 * nm, 2 * nm))
    inside = eigs[(eigs >= window[0] - cluster_tol) & (eigs <= window[1] + cluster_tol)]
    return _cluster(inside, cluster_tol)


def _standard_plus_cosine(n=8, amplitude=0.2):
    """Flat Dirac operator plus amplitude * cos(x1 + x2) * I: support {0, +-(1, 1, 0)}."""
    base = dw.dirac_operator(dw.standard_frame(n))
    x1, x2, _ = dw.PeriodicChart(n).mesh()
    a0 = base.a0 + amplitude * np.cos(x1 + x2)[..., None, None] * np.eye(2)
    return dw.FirstOrderOperator(base.sigma, a0)


# (operator, number of coset blocks, largest block order) at cutoff 4
BLOCK_CASES = {
    "twisted-k3-2": (lambda: dw.dirac_operator(dw.twisted_frame(2, 12)), 2 * 81, 10),
    "cosine-diagonal": (_standard_plus_cosine, 17 * 9, 18),
    "random-one-coset": (lambda: dw.dirac_operator(dw.random_band_limited_frame(0)), 1, 2 * 729),
    # constant coefficients: every mode its own coset, all solved by _eigvalsh2
    "traceless-order-2": (lambda: dw.dirac_plus_traceless(dw.standard_frame(8), 0.1), 729, 2),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_solve_matches_dense_matrix(case):
    build, n_blocks, largest = BLOCK_CASES[case]
    op = build()
    got = dw.galerkin_spectrum(op, 4)
    values, mults = _dense_galerkin(op, 4, got.coverage)
    assert len(got.values) == len(values) > 0
    assert np.abs(got.values - values).max() <= 1e-12
    assert np.array_equal(got.multiplicities, mults)
    assert got.metadata["matrix_order"] == 2 * 9**3
    assert got.metadata["block_count"] == n_blocks
    assert got.metadata["max_block_order"] == largest


def test_order_2_closed_form_matches_eigvalsh():
    """Random, diagonal, degenerate and widely scaled Hermitian 2x2 blocks, within 1e-14 of
    their scale, in eigvalsh's ascending order."""
    rng = np.random.default_rng(11)
    h = rng.standard_normal((400, 2, 2)) + 1j * rng.standard_normal((400, 2, 2))
    h = h + np.conj(h.swapaxes(1, 2))
    h[:50, 1, 0] = h[:50, 0, 1] = 0.0  # diagonal
    h[50:100, 1, 1] = h[50:100, 0, 0]  # equal diagonal
    h[100:150] = np.eye(2) * rng.standard_normal((50, 1, 1))  # degenerate
    h[150:250] *= 10.0 ** rng.uniform(-8, 8, size=(100, 1, 1))
    h[250:300, 0, 0] += 1e6  # a small off-diagonal beside a wide diagonal gap
    got, want = _eigvalsh2(h), np.linalg.eigvalsh(h)
    scale = np.abs(h).max(axis=(1, 2))[:, None]
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    assert np.all(got[:, 0] <= got[:, 1])


def test_ball_basis_pollutes_the_twisted_spectrum():
    """Truncating the twisted frame's strongly coupled m3 chains to the ball
    |m|_2 <= 4 yields 80 eigenvalues in [-2, 2] where the exact table has 56;
    the cube basis galerkin_spectrum uses matches the table (Levitin and
    Shargorodsky, IMA J. Numer. Anal. 2004)."""
    op = dw.dirac_operator(dw.twisted_frame(1, 12))
    exact = dw.torus_exact_spectrum(HALF3, 2.5)
    keep = np.abs(exact.values) <= 2.0
    assert exact.multiplicities[keep].sum() == 56
    _, ball_mults = _dense_galerkin(op, 4, (-2.0, 2.0), ball=True)
    assert ball_mults.sum() == 80
    cube = dw.galerkin_spectrum(op, 4, window=(-2.0, 2.0))
    _match_tables(cube, exact.values[keep], exact.multiplicities[keep], 1e-10)


def test_coset_blocks_follow_lattice_membership():
    """Modes share a block exactly when their difference lies in the lattice
    the support spans; this one has index 19 in Z^3."""
    ks = np.array([[0, 0, 0], [2, 1, 0], [-2, -1, 0], [0, 3, 1], [1, 0, 3]])
    coeffs = np.stack(np.meshgrid(*[np.arange(-12, 13)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    lattice = {tuple(v) for v in coeffs @ ks[[1, 3, 4]]}
    ax = np.arange(-2, 3)
    modes = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    blocks = [row for grp in _coset_blocks(modes, ks) for row in grp]
    assert len(blocks) == 19
    block_of = np.empty(len(modes), dtype=int)
    for b, row in enumerate(blocks):
        block_of[row] = b
    in_lattice = np.array([[tuple(d) in lattice for d in modes - m] for m in modes])
    assert np.array_equal(in_lattice, block_of[:, None] == block_of[None, :])


def _coset_blocks_by_rows(modes, ks):
    """The previous labelling: np.unique over the representatives' rows."""
    rep = modes.copy()
    for row in _lattice_basis(ks):
        col = np.flatnonzero(row)[0]
        rep -= (rep[:, col] // row[col])[:, None] * row
    label = np.unique(rep, axis=0, return_inverse=True)[1].ravel()
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))
    sizes, n_modes = np.unique(size[order], return_counts=True)
    return [idx.reshape(-1, b) for idx, b in zip(np.split(order, np.cumsum(n_modes)[:-1]), sizes)]


@pytest.mark.parametrize("ks", [
    [[0, 0, 0]],
    [[0, 0, 1], [0, 0, -1]],
    [[1, 1, 0], [-1, -1, 0], [0, 0, 2]],
    [[0, 0, 0], [2, 1, 0], [-2, -1, 0], [0, 3, 1], [1, 0, 3]],
    [[3, -5, 7], [-3, 5, -7]],
], ids=["zero", "x3-line", "plane-and-step", "index-19", "skew-line"])
def test_coset_codes_give_the_row_labels(ks):
    """One int64 code per representative orders the cosets as their rows do, so the
    blocks, and with them the tables, are the same."""
    ax = np.arange(-4, 5)
    modes = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    got, want = _coset_blocks(modes, np.array(ks)), _coset_blocks_by_rows(modes, np.array(ks))
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_coset_labels_peak_memory(peak_mb):
    """Cutoff 40, 531441 modes, each its own coset: np.unique over the rows peaked at
    64.3 MB of traced allocation; the 1-D codes peak at 30.3 MB."""
    ax = np.arange(-40, 41)
    modes = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    assert peak_mb(lambda: _coset_blocks(modes, np.zeros((1, 3), dtype=np.int64))) <= 35.0


def test_block_solve_memory(peak_mb):
    """The dense cutoff-6 matrix alone is 309 MB."""
    op = dw.dirac_operator(dw.twisted_frame(1, 12))
    assert peak_mb(lambda: dw.galerkin_spectrum(op, 6)) <= 40.0


def test_fully_coupled_block_peak_memory(peak_mb):
    """One block of order 686 (cutoff 3), a 7.5 MB matrix: assembly and the Hermiticity
    check traced 14.6 MB with their temporaries; the check buffer is freed before eigvalsh."""
    op = dw.dirac_operator(dw.random_band_limited_frame(0, 16))
    assert peak_mb(lambda: dw.galerkin_spectrum(op, 3)) <= 11.5


def test_small_blocks_are_batched_by_bytes(peak_mb):
    """Cutoff 40 on constant coefficients: 531441 blocks of order 2, 34 MB of matrices.
    Solved in one batch, beside a 33 MB support table over every difference in [-80, 80]^3,
    the call traced 122.7 MB.  In batches of at most 4 MB, with a table over the differences
    inside one coset (here k = 0 alone), the peak is the coset labelling's."""
    op = dw.dirac_operator(dw.standard_frame(8))
    table = dw.galerkin_spectrum(op, 40, window=(-1.0, 1.0))
    assert (table.metadata["block_count"], table.metadata["max_block_order"]) == (531441, 2)
    assert peak_mb(lambda: dw.galerkin_spectrum(op, 40, window=(-1.0, 1.0))) <= 44.0


def test_fully_coupled_block_over_budget_refused():
    op = dw.dirac_operator(dw.random_band_limited_frame(0))
    with pytest.raises(InputError, match="18522.*couples every mode into one block"):
        dw.galerkin_spectrum(op, 10)


def test_split_blocks_within_budget_solved():
    """Cutoff 10 is order 18522 in all, but the twisted frame splits it into blocks of order 42."""
    got = dw.galerkin_spectrum(dw.dirac_operator(dw.twisted_frame(1, 12)), 10, window=(-2.0, 2.0))
    assert got.metadata["max_block_order"] == 42
    exact = dw.torus_exact_spectrum(HALF3, 2.5)
    keep = np.abs(exact.values) <= 2.0
    _match_tables(got, exact.values[keep], exact.multiplicities[keep], 1e-10)


class TestGalerkin:
    def test_flat_operator_reproduces_exact_table(self):
        op = dw.dirac_operator(dw.standard_frame(8))
        got = dw.galerkin_spectrum(op, 4, window=(-1.9, 1.9))
        exact = dw.torus_exact_spectrum(TRIVIAL, 2.0)
        keep = (exact.values >= -1.9) & (exact.values <= 1.9)
        _match_tables(got, exact.values[keep], exact.multiplicities[keep], 1e-10)

    def test_window_beyond_reliable_zone_rejected(self):
        op = dw.dirac_operator(dw.standard_frame(8))
        with pytest.raises(InputError, match="reliable"):
            dw.galerkin_spectrum(op, 4, window=(-3.0, 3.0))

    @pytest.mark.parametrize("window", [(1.0,), (-1.0, 0.0, 5.0), 1.0, (), ("a", 1.0)])
    def test_window_that_is_not_a_pair_of_numbers_rejected(self, window):
        """(1.0,) raised IndexError and (-1, 0, 5) dropped the 5 without a word."""
        op = dw.dirac_operator(dw.standard_frame(8))
        with pytest.raises(InputError, match="pair"):
            dw.galerkin_spectrum(op, 4, window=window)

    def test_twisted_operator_shifted_lattice(self):
        op = dw.dirac_operator(dw.twisted_frame(1, 12))
        got = dw.galerkin_spectrum(op, 4, window=(-1.6, 1.6))
        exact = dw.torus_exact_spectrum(HALF3, 2.0)
        keep = (exact.values >= -1.6) & (exact.values <= 1.6)
        _match_tables(got, exact.values[keep], exact.multiplicities[keep], 1e-10)
        assert (got.multiplicities % 2 == 0).all()

    def test_scalar_shift_moves_spectrum(self):
        op = dw.dirac_plus_scalar(dw.standard_frame(8), 0.3)
        got = dw.galerkin_spectrum(op, 4, window=(-1.2, 1.8))
        exact = dw.torus_exact_spectrum(TRIVIAL, 2.2)
        shifted = exact.values + 0.3
        keep = (shifted >= -1.2) & (shifted <= 1.8)
        _match_tables(got, shifted[keep], exact.multiplicities[keep], 1e-10)

    def test_cutoff_stability_on_random_scenario(self):
        """Raising the cutoff must not move converged eigenvalues."""
        op = dw.dirac_operator(dw.random_band_limited_frame(0))
        t3 = dw.galerkin_spectrum(op, 3, window=(-1.2, 1.2))
        t4 = dw.galerkin_spectrum(op, 4, window=(-1.2, 1.2))
        assert len(t3.values) == len(t4.values)
        assert np.abs(t3.values - t4.values).max() < 1e-9
        assert (t3.multiplicities == t4.multiplicities).all()

    def test_metadata_records_solve(self):
        op = dw.dirac_operator(dw.standard_frame(8))
        got = dw.galerkin_spectrum(op, 3)
        assert got.provenance == "galerkin"
        assert got.metadata["mode_cutoff"] == 3
        assert got.metadata["matrix_order"] == 2 * 7**3

    def test_nyquist_content_rejected(self, nyquist_operator):
        """Coefficients with spectral content at the grid Nyquist mode
        cannot be assembled faithfully."""
        with pytest.raises(ConsistencyError, match="Nyquist"):
            dw.galerkin_spectrum(nyquist_operator, 3)


# Grid and cutoff of each pulled-back flat frame; the stretch is not band-limited.
PULLBACK_GALERKIN = {"shear": (16, 8), "stretch": (24, 8), "two-shear": (16, 6)}


@pytest.mark.parametrize("name", sorted(PULLBACK_GALERKIN))
def test_pullback_tables_and_b_are_the_flat_ones(name, pullback_frame):
    """A flat frame pulled back by a torus diffeomorphism has a non-constant metric, yet its
    Dirac operator is unitarily equivalent to the flat one on half-densities.  So on
    |lambda| <= cutoff/2 - 1/2 its Galerkin table is the trivial spin structure's exact
    table, and D + 0.3 I's is that table plus 0.3, each within 1e-11 (measured at most
    8.9e-15, 4.3e-15 and 1.4e-12); and b(x) of D + 0.3 I is J(x) (-0.3 / 2 pi^2) within
    1e-15 (measured 3.5e-18), read right after check_dirac on the same operator and on a new
    operator over the same arrays, both from the record check_dirac left for this p."""
    n, cutoff = PULLBACK_GALERKIN[name]
    frame, jac, _ = pullback_frame(name, n)
    half = 0.5 * cutoff - 0.5
    exact = dw.torus_exact_spectrum(TRIVIAL, half)
    gaps = {}
    for q, op in ((0.0, dw.dirac_operator(frame)), (0.3, dw.dirac_plus_scalar(frame, 0.3))):
        got = dw.galerkin_spectrum(op, cutoff, window=(q - half, q + half))
        assert np.array_equal(got.multiplicities, exact.multiplicities)
        gaps[f"table of D + {q} I"] = np.abs(got.values - (exact.values + q)).max()
    want = jac * (-0.3 / (2.0 * np.pi**2))
    dw.check_dirac(op)
    gaps["b after check_dirac"] = np.abs(dw.b_density(op).b - want).max()
    assert dw.operators._weyl_slot[0]() is op.sigma.p
    new = dw.FirstOrderOperator(op.sigma, op.a0)
    gaps["b of a new operator"] = np.abs(dw.b_density(new).b - want).max()
    print(f"{name} {n}^3, cutoff {cutoff}: " + ", ".join(f"{k} {v:.1e}" for k, v in gaps.items()))
    assert max(v for k, v in gaps.items() if k.startswith("table")) <= 1e-11
    assert max(v for k, v in gaps.items() if k.startswith("b ")) <= 1e-15


# --- growth-law comparison ----------------------------------------------------------

@pytest.fixture(scope="module")
def report():
    table = dw.torus_exact_spectrum(TRIVIAL, 40.5)
    return dw.asymptotic_comparison(table, 4.0 * np.pi / 3.0, 0.0)


class TestAsymptoticComparison:
    def test_window_maxima_decrease(self, report):
        assert report.window_edges == [(5.0, 10.0), (10.0, 20.0), (20.0, 40.0)]
        assert report.decreasing
        expect = [1.657051, 1.115575, 0.669836]
        assert np.abs(np.array(report.window_maxima) - expect).max() < 1e-5

    def test_octave_samples(self, report):
        assert np.abs(report.octave_lambdas - [5.0, 10.0, 20.0, 40.0]).max() < 1e-5
        expect = [0.383963, 0.207915, 0.275817, 0.201621]
        assert np.abs(report.octave_scaled_residuals - expect).max() < 1e-5
        # every 24th dense sample is an octave sample, residual included
        dense = report.lambda_grid[::24]
        assert np.array_equal(report.octave_lambdas, dense)
        assert np.array_equal(report.octave_scaled_residuals, np.abs(report.residuals[::24]) / dense**2)
        table = dw.torus_exact_spectrum(TRIVIAL, 40.5)
        assert np.array_equal(dense, _tie_free(5.0 * 2.0 ** np.arange(4), table.values))

    def test_remainder_exponent_subquadratic(self, report):
        assert report.fitted_exponent < 2.0
        assert abs(report.fitted_exponent - 1.3852) < 1e-3

    def test_counts_are_strict_counting_values(self, report):
        table = dw.torus_exact_spectrum(TRIVIAL, 40.5)
        k = len(report.lambda_grid) // 2
        lam = report.lambda_grid[k]
        assert report.counts[k] == dw.counting_function(table, lam)

    def test_bad_range_rejected(self, report):
        table = dw.torus_exact_spectrum(TRIVIAL, 10.0)
        with pytest.raises(InputError, match="increasing"):
            dw.asymptotic_comparison(table, 1.0, 0.0, lambda_range=(5.0, 5.0))

    @pytest.mark.parametrize("lo", [1e-9, 1e-100, 1e-300, 3.4e-5])
    def test_range_starting_below_the_floor_rejected(self, lo):
        """On the trivial torus, samples within 1e-9 of the eigenvalue 0 were moved to
        lambda + 1e-6, past later samples: from lo = 1e-9 the grid was not increasing, from
        1e-100 many octave samples were repeats, and below about 1e-162 lambda^2 underflowed
        so a window maximum divided 0 by 0."""
        table = dw.torus_exact_spectrum(TRIVIAL, 2.0)
        with pytest.raises(InputError, match=r"start at 3\.42e-05 or above"):
            dw.asymptotic_comparison(table, 4.0 * np.pi / 3.0, 0.0, lambda_range=(lo, 1.0))

    def test_samples_increase_from_the_floor_when_every_one_sits_on_an_eigenvalue(self):
        """The worst case for the nudge: each dense sample from the floor on is an eigenvalue."""
        lo = _COMPARE_FLOOR
        values = np.concatenate([[0.0], lo * 2.0 ** (np.arange(49) / 24)])
        table = dw.SpectrumTable(values, np.ones(50, dtype=int), "test", (-1.0, 1.0))
        got = dw.asymptotic_comparison(table, 1.0, 0.0, lambda_range=(lo, 4.0 * lo))
        assert len(got.lambda_grid) == 49 and np.all(np.diff(got.lambda_grid) > 0.0)
        assert np.all(np.diff(got.octave_lambdas) > 0.0)
        assert np.isfinite(got.window_maxima).all() and np.isfinite(got.max_scaled_residual)

    @pytest.mark.parametrize("lo, hi", [(5.0, 40.0), (5.0, 100.0), (2.5, 9.0), (3.0, 3.0 * 2**0.5)])
    def test_samples_are_the_sorted_unique_dense_grid(self, lo, hi):
        """Repeats of hi are dropped by a diff mask, not np.unique, which imports numpy.ma
        in numpy 2.4; the samples are those np.unique kept, nudged off eigenvalues."""
        table = dw.torus_exact_spectrum(TRIVIAL, 101.0)
        n_dense = int(np.floor(24 * np.log2(hi / lo))) + 1
        dense = np.minimum(lo * 2.0 ** (np.arange(n_dense) / 24), hi)
        got = dw.asymptotic_comparison(table, 4.0 * np.pi / 3.0, 0.0, lambda_range=(lo, hi))
        assert np.array_equal(got.lambda_grid, _tie_free(np.unique(dense), table.values))


# --- mollified counting ---------------------------------------------------------------

class TestMollifiedCount:
    def test_isolated_eigenvalue_saturates(self):
        table = dw.SpectrumTable(
            values=np.array([3.0]),
            multiplicities=np.array([4]),
            provenance="test",
            coverage=(-25.0, 25.0),
        )
        # beyond the kernel tail only the oscillatory envelope remains
        assert abs(dw.mollified_count(table, 12.0) - 4.0) < 5e-4
        assert dw.mollified_count(table, 0.5) < 0.01
        # the kernel is even, so sitting on the eigenvalue gives half weight
        assert abs(dw.mollified_count(table, 3.0) - 2.0) < 1e-6

    def test_sphere_near_identity(self):
        table = dw.sphere_exact_spectrum(18.0)
        smooth = dw.mollified_count(table, 10.0)
        assert abs(smooth - 330.0) < 5.0

    def test_torus_near_ball_volume(self):
        table = dw.torus_exact_spectrum(TRIVIAL, 20.0)
        smooth = dw.mollified_count(table, 10.0)
        assert abs(smooth - 4.0 * np.pi / 3.0 * 1000.0) < 25.0

    @pytest.mark.parametrize("tau", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 6.0])
    def test_isolated_eigenvalue_gets_half_weight_at_every_width(self, tau):
        """The FFT kernel, cut off at |mu| <= 40, failed its mass check below tau ~ 2.75."""
        table = dw.SpectrumTable(np.array([3.0]), np.array([4]), "test", (-100.0, 100.0))
        assert abs(dw.mollified_count(table, 3.0, kernel_width=tau) - 2.0) <= 1e-9

    def test_unit_cdf_matches_direct_quadrature(self):
        """The sampled width-1 CDF against a 400-node trapezoid rule of
        F(x) = 1/2 + (1/pi) int_0^1 rho_hat(t) sin(xt)/t dt."""
        from diracweyl import spectra

        x, cdf = spectra._unit_cdf()
        assert cdf[np.flatnonzero(x == 0.0)[0]] == 0.5
        # the factored product against the 24001 x 95 sines it replaces, on the same nodes
        h = 1.0 / 96
        t = np.arange(1, 96) * h
        w = h * np.exp(1.0 - 1.0 / (1.0 - t**2)) / t
        half = x[x >= 0.0]
        direct = 0.5 + (0.5 * h * half + np.sin(np.outer(half, t)) @ w) / np.pi
        assert np.abs(cdf[x >= 0.0] - direct).max() <= 10 * np.finfo(float).eps
        pts = np.random.default_rng(0).uniform(-240.0, 240.0, 12_000)
        t = np.arange(1, 400) / 400
        w = np.exp(1.0 - 1.0 / (1.0 - t**2)) / (400 * t)
        xt = np.outer(pts, t)
        want = 0.5 + (pts / 800 + np.sin(xt, out=xt) @ w) / np.pi
        gap = np.abs(np.interp(pts, x, cdf) - want).max()
        print(f"sampled unit CDF off the direct quadrature by {gap:.2e}")
        assert gap <= 1e-6

    def test_rebuilt_kernel_gives_identical_counts(self, monkeypatch):
        from diracweyl import spectra

        table = dw.torus_exact_spectrum(TRIVIAL, 30.0)
        first = dw.mollified_count(table, 5.0)
        assert spectra._unit_cdf() is spectra._unit_cdf()
        monkeypatch.setattr(spectra, "_unit_cdf_grid", None)
        assert dw.mollified_count(table, 5.0) == first

    def test_widths_agree_on_an_evenly_spaced_table(self, peak_mb):
        """2e6 unit eigenvalues evenly spaced on (0, 1100]: the FFT kernels of
        widths 3 and 6 disagreed by 0.062, and one call peaked at 66.1 MB; it
        still traced 32.4 MB while F was interpolated at every eigenvalue.  Now
        only the eigenvalues within the kernel's reach take arrays, so a call
        stays below one table-length float array (16 MB)."""
        n = 2_000_000
        values = np.arange(1, n + 1) * (1100.0 / n)
        table = dw.SpectrumTable(values, np.ones(n, dtype=int), "even", (-1100.0, 1100.0))
        gap = abs(dw.mollified_count(table, 1000.0, 3.0) - dw.mollified_count(table, 1000.0, 6.0))
        print(f"widths 3 and 6 differ by {gap:.2e}")
        assert gap <= 1e-3
        peak = peak_mb(lambda: dw.mollified_count(table, 1000.0))
        print(f"one call traces {peak:.1f} MB")
        assert peak < 16.0

    @pytest.mark.parametrize("tau", [1.5, 6.0])
    def test_summing_below_the_reach_matches_interpolating_every_eigenvalue(self, tau):
        """F is 1 past 240 (interp's right fill), so the eigenvalues more than
        240/tau below lambda can be summed instead of interpolated."""
        from diracweyl import spectra

        x, cdf = spectra._unit_cdf()
        gap = 0.0
        for table in (
            dw.torus_exact_spectrum(TRIVIAL, 100.0),
            dw.torus_exact_spectrum(HALF3, 100.0),
            dw.sphere_exact_spectrum(101.0),
        ):
            v, m = table.values[table.values > 0.0], table.multiplicities[table.values > 0.0]
            for lam in (5.0, 33.3, 60.0, 90.0 - 45.75 / tau):
                want = m @ np.interp(tau * (lam - v), x, cdf, left=0.0, right=1.0)
                gap = max(gap, abs(dw.mollified_count(table, lam, tau) - want) / want)
        print(f"relative gap to interpolating every eigenvalue: {gap:.1e}")
        assert gap <= 1e-12

    @pytest.mark.parametrize("which,lam,before", [
        ("sphere", 10.0, 331.36921615305806),
        ("torus", 5.0, 526.0910973825135),
        ("torus", 10.0, 4194.7713798906425),
        ("torus", 33.3, 154697.66892485842),
        ("torus", 90.0, 3053690.3035454648),
    ])
    def test_agrees_with_the_fft_kernel_within_its_error(self, which, lam, before):
        """Values of the width-6 kernel built by a 2^21-point FFT of rho_hat: the
        counts move by at most 1e-6 per eigenvalue within reach 240/6 of lambda."""
        if which == "sphere":
            table = dw.sphere_exact_spectrum(18.0)
        else:
            table = dw.torus_exact_spectrum(TRIVIAL, 100.0)
        reach = (table.values > 0.0) & (np.abs(table.values - lam) <= 40.0)
        assert abs(dw.mollified_count(table, lam) - before) <= 1e-6 * table.multiplicities[reach].sum()

    def test_kernel_width_capped(self):
        table = dw.torus_exact_spectrum(TRIVIAL, 20.0)
        with pytest.raises(InputError, match="width"):
            dw.mollified_count(table, 5.0, kernel_width=7.0)

    def test_coverage_guard(self):
        table = dw.torus_exact_spectrum(TRIVIAL, 12.0)
        with pytest.raises(InputError, match="coverage"):
            dw.mollified_count(table, 10.0)
