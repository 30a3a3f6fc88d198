"""Built-in scenario constructors."""

import re

import numpy as np
import pytest

import diracweyl as dw
from diracweyl.errors import ConsistencyError, InputError
from diracweyl.geometry import PAULI
from diracweyl.scenarios import SCENARIO_NAMES, SCENARIOS, build_scenario, scenario_spectrum


def test_scenario_names_frozen():
    assert SCENARIO_NAMES == (
        "standard-torus",
        "twisted-torus",
        "dirac-plus-scalar",
        "dirac-plus-traceless",
        "random-band-limited",
        "sphere",
    )


def test_build_standard():
    op = build_scenario("standard-torus", 8)
    assert isinstance(op, dw.FirstOrderOperator)
    assert dw.check_dirac(op).is_dirac


def test_build_twisted_passes_k3():
    op = build_scenario("twisted-torus", 12, k3=2)
    assert np.abs(op.a0 + np.eye(2)).max() < 1e-12


def test_build_scalar_and_traceless():
    op_s = build_scenario("dirac-plus-scalar", 8, q=0.4)
    assert abs(dw.check_dirac(op_s).cond_b_residual - 0.4 / (2 * np.pi**2)) < 1e-10
    op_t = build_scenario("dirac-plus-traceless", 8, epsilon=0.2)
    assert abs(dw.check_dirac(op_t).cond_a_residual - 0.2) < 1e-9


def test_random_scenario_reproducible():
    a = build_scenario("random-band-limited", 16, seed=5).sigma
    b = build_scenario("random-band-limited", 16, seed=5).sigma
    c = build_scenario("random-band-limited", 16, seed=6).sigma
    assert np.abs(a.sigma - b.sigma).max() == 0.0
    assert np.abs(a.sigma - c.sigma).max() > 1e-6


def test_random_frame_is_orthonormal():
    fr = dw.random_band_limited_frame(3)
    gram = np.einsum("...ja,...ka->...jk", fr.e, fr.e)
    assert np.abs(gram - np.eye(3)).max() < 1e-12
    # stays close to the identity frame at the default amplitude
    assert np.abs(fr.e - np.eye(3)).max() < 0.05


def _self_adjointness(seed, n, amplitude):
    """'passes', or the residual the operator's 1e-10 self-adjointness gate refused."""
    try:
        dw.dirac_operator(dw.random_band_limited_frame(seed, n, amplitude))
    except ConsistencyError as exc:
        return float(re.search(r"measured ([0-9.e+-]+) against", str(exc)).group(1))
    return "passes"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_frame_resolution_limit(seed):
    """The amplitude-vs-grid table behind the default amplitude 0.003: Gram-Schmidt
    overtones of a random frame stay under the gate at 16^3 for 0.003, not for
    0.01 (measured residuals 7.75e-10, 5.99e-10, 5.77e-10 for seeds 0-2), which
    24^3 resolves."""
    cases = ((0.003, 16), (0.01, 16), (0.01, 24))
    table = {(a, n): _self_adjointness(seed, n, a) for a, n in cases}
    print(f"seed {seed}: " + ", ".join(f"{a} at {n}^3 {r}" for (a, n), r in table.items()))
    assert table[0.003, 16] == "passes" and table[0.01, 24] == "passes"
    assert table[0.01, 16] != "passes" and 1e-10 < table[0.01, 16] < 1e-8


def test_random_gauge_field_properties():
    g = dw.random_gauge_field(0)
    det = g.R[..., 0, 0] * g.R[..., 1, 1] - g.R[..., 0, 1] * g.R[..., 1, 0]
    assert np.abs(det - 1.0).max() < 1e-12
    assert np.abs(g.R[0, 0, 0] - np.eye(2)).max() > 1e-4  # genuinely non-constant


# --- the random builders against their mode-by-mode sums ----------------------

def _mode_sum(rng, modes, n, draw):
    """sum_m a_m cos(m . x) + b_m sin(m . x), one mode at a time, a_m then b_m drawn."""
    x1, x2, x3 = dw.PeriodicChart(n).mesh()
    out = 0.0
    for m in modes:
        phase = (m[0] * x1 + m[1] * x2 + m[2] * x3)[(...,) + (None,) * len(draw)]
        a, b = rng.standard_normal(draw), rng.standard_normal(draw)
        out = out + np.cos(phase) * a + np.sin(phase) * b
    return out


def _reference_frame(seed, n, amplitude=0.003):
    ax = range(-2, 3)
    modes = [(m1, m2, m3) for m1 in ax for m2 in ax for m3 in ax if (m1, m2, m3) != (0, 0, 0)]
    pert = _mode_sum(np.random.default_rng(seed), modes, n, (3, 3))
    return dw.orthonormalize_frame(np.eye(3) + pert * (amplitude / np.abs(pert).max())).e


def _reference_gauge(seed, n, amplitude=0.04):
    rng = np.random.default_rng(seed)
    modes = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    t, u1, u2, u3 = (amplitude * f / np.abs(f).max() for f in
                     (_mode_sum(rng, modes, n, ()) for _ in range(4)))
    u = np.stack([1.0 + u1, u2, u3], axis=-1)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    u_dot_s = np.einsum("...j,jpq->...pq", u, PAULI)
    return np.cos(t)[..., None, None] * np.eye(2) - 1j * np.sin(t)[..., None, None] * u_dot_s


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_fields_match_their_mode_sums(seed, n):
    """One inverse FFT of the coefficients reproduces the sum over modes; at n = 4
    the modes +-2 of the frame share the Nyquist bin, where their terms add up."""
    frame_gap = np.abs(dw.random_band_limited_frame(seed, n).e - _reference_frame(seed, n)).max()
    gauge_gap = np.abs(dw.random_gauge_field(seed, n).R - _reference_gauge(seed, n)).max()
    print(f"seed {seed}, n {n}: frame {frame_gap:.1e}, gauge {gauge_gap:.1e}")
    assert frame_gap <= 1e-14 and gauge_gap <= 1e-14


def test_parameter_the_scenario_does_not_read_is_refused():
    with pytest.raises(InputError, match="does not read k3"):
        build_scenario("standard-torus", 8, k3=2)
    assert dw.scenarios.scenario_params("twisted-torus") == {"k3": 1}


@pytest.mark.parametrize("lambda_max", [-1.0, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("name", [name for name, row in SCENARIOS.items() if row.spectrum])
def test_exact_tables_refuse_a_lambda_max_that_is_not_positive_and_finite(name, lambda_max):
    """dirac-plus-scalar read only the reach lambda_max + |q|: at q = 2 a lambda_max of -1
    gave a table covering (1, 3)."""
    params = {"q": 2.0} if "q" in SCENARIOS[name].params else {}
    with pytest.raises(InputError, match="lambda_max must be positive and finite"):
        scenario_spectrum(name, lambda_max, **params)


def test_sphere_scenario_has_no_grid_objects():
    with pytest.raises(InputError, match="sphere"):
        build_scenario("sphere", 8)


def test_unknown_scenario():
    with pytest.raises(InputError):
        build_scenario("moebius", 8)


@pytest.mark.parametrize("build", [
    dw.standard_frame,
    lambda n: dw.random_band_limited_frame(0, n),
    lambda n: dw.random_gauge_field(0, n),
], ids=["standard", "random-frame", "random-gauge"])
def test_grid_size_is_checked_before_allocating(build):
    """A negative n reached np.zeros first, which raised a ValueError."""
    with pytest.raises(InputError, match="grid size must be even and >= 4, got -4"):
        build(-4)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", [1, 2], None], ids=repr)
@pytest.mark.parametrize("build", [dw.random_band_limited_frame, dw.random_gauge_field],
                         ids=["frame", "gauge"])
def test_random_builders_take_a_non_negative_integer_seed(build, seed):
    """-1 died in np.random.default_rng with a ValueError; None drew an unseeded field."""
    with pytest.raises(InputError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
        build(seed, 4)


def test_random_builders_take_numpy_integer_seeds():
    frame, gauge = dw.random_band_limited_frame, dw.random_gauge_field
    assert np.array_equal(frame(np.int64(3), 4).e, frame(3, 4).e)
    assert np.array_equal(gauge(np.uint8(3), 4).R, gauge(3, 4).R)


@pytest.mark.parametrize("q", [1.001e300, -1e307, 1e308, float("nan")])
def test_dirac_plus_scalar_refuses_q_past_its_limit(q):
    """Past |q| = 1e300 the torus integral of b can overflow float64 on a fine grid."""
    with pytest.raises(InputError, match=r"limit \|q\| <= 1e\+300"):
        dw.dirac_plus_scalar(dw.standard_frame(4), q)
