"""Built-in scenario constructors."""

import numpy as np
import pytest

import diracweyl as dw
from diracweyl.errors import InputError
from diracweyl.scenarios import SCENARIO_NAMES, build_scenario


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


def test_random_gauge_field_properties():
    g = dw.random_gauge_field(0)
    det = g.R[..., 0, 0] * g.R[..., 1, 1] - g.R[..., 0, 1] * g.R[..., 1, 0]
    assert np.abs(det - 1.0).max() < 1e-12
    assert np.abs(g.R[0, 0, 0] - np.eye(2)).max() > 1e-4  # genuinely non-constant


def test_parameter_the_scenario_does_not_read_is_refused():
    with pytest.raises(InputError, match="does not read k3"):
        build_scenario("standard-torus", 8, k3=2)
    assert dw.scenarios.scenario_params("twisted-torus") == {"k3": 1}


def test_sphere_scenario_has_no_grid_objects():
    with pytest.raises(InputError, match="sphere"):
        build_scenario("sphere", 8)


def test_unknown_scenario():
    with pytest.raises(InputError):
        build_scenario("moebius", 8)
