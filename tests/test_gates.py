"""The one residual gate: what it returns, what its failures say, and that NaN fails."""

import re

import numpy as np
import pytest

import diracweyl as dw
from diracweyl import geometry
from diracweyl.errors import ConsistencyError, EllipticityError, InputError, gate
from diracweyl.fields import fiber_ball_quadrature
from diracweyl.scenarios import scenario_spectrum

MESSAGE = re.compile(r"measured (\S+) against bound (\S+), ratio (\S+)")
POINT = re.compile(r"at grid point \((\d+), (\d+), (\d+)\)$")


def test_gate_returns_the_largest_modulus():
    assert gate("x", np.array([0.25, -0.5, 0.125]), 1.0) == 0.5
    assert gate("x", np.array([3j, -1.0]), 3.0) == 3.0
    assert gate("x", 0.5, 0.5) == 0.5


def test_empty_residual_passes_with_zero():
    assert gate("x", np.empty(0), 0.0) == 0.0


def test_nan_fails_and_is_located():
    r = np.zeros((4, 4, 4, 2))
    r[3, 0, 2, 1] = np.nan
    r[0, 0, 0, 0] = 1.0
    with pytest.raises(ConsistencyError, match=r"measured nan .* at grid point \(3, 0, 2\)"):
        gate("x", r, 2.0)
    with pytest.raises(InputError, match="measured nan"):
        gate("x", np.nan, 1.0, InputError)


def test_real_residual_is_read_without_a_copy(peak_mb):
    big = np.linspace(-1.0, 0.5, 1_000_000)  # 8 MB
    assert gate("x", big, 1.0) == 1.0
    assert peak_mb(lambda: gate("x", big, 1.0)) < 0.01


def _bump(shape, point, size):
    out = np.zeros(shape)
    out[point] = size
    return out


def _route_with_offset(monkeypatch):
    """The curl route of the dual torsion, off by 1e-6 at grid point (2, 5, 1); the route
    holds its 3x3 fields components first, as [a, b, ...]."""
    curl = geometry._star_torsion_from_curl
    monkeypatch.setattr(geometry, "_star_torsion_from_curl",
                        lambda *a: curl(*a) + _bump((3, 3, 8, 8, 8), (0, 0, 2, 5, 1), 1e-6))
    frame = dw.twisted_frame(1, 8)
    dw.torsion(frame, dw.decode_metric(dw.symbol_from_frame(frame)))


def _self_adjointness():
    op = dw.dirac_operator(dw.standard_frame(8))
    dw.FirstOrderOperator(op.sigma, op.a0 + _bump(op.a0.shape, (4, 4, 1, 0, 1), 1e-3))


def _galerkin_hermiticity():
    op = dw.dirac_operator(dw.standard_frame(8))
    op.a0 = op.a0 + 1e-6 * np.array([[0.0, 1.0], [0.0, 0.0]])  # bypasses the constructor's gate
    dw.galerkin_spectrum(op, 2)


def _skew_symbol():
    sigma = dw.symbol_from_frame(dw.standard_frame(8)).sigma
    dw.PrincipalSymbolField(sigma + _bump(sigma.shape, (1, 6, 3, 0, 0, 1), 1e-6))


def _nyquist_potential():
    """The 8^3 standard Dirac operator plus 0.1 cos(4 x1) I: content at the Nyquist mode."""
    op = dw.dirac_operator(dw.standard_frame(8))
    x1 = dw.PeriodicChart(8).mesh()[0]
    return dw.FirstOrderOperator(op.sigma, op.a0 + 0.1 * np.cos(4 * x1)[..., None, None] * np.eye(2))


def _b_decomposition():
    b = _bump((8, 8, 8), (3, 0, 7), 1e-9)
    zero = np.zeros((8, 8, 8))
    dw.AsymptoticCoefficients(a=zero, b1=zero, b2=zero, b=b, a_global=0.0, b_global=0.0, charge=1)


def _one_inhomogeneous_point():
    """1 + |xi|^d over four unit metrics: degree 0 (d = 0) at all but the third."""
    d = np.array([0.0, 0.0, 2.0, 0.0])[:, None]
    fiber_ball_quadrature(np.stack([np.eye(3)] * 4), lambda xi: 1.0 + (xi**2).sum(axis=-1)**(d / 2))


# case -> (trip, error class, words the message keeps, worst grid point or None)
TRIPPED = {
    "fields-homogeneity": (
        lambda mp: fiber_ball_quadrature(np.eye(3), lambda xi: (xi**2).sum(axis=1)),
        InputError, "homogeneous of degree 0", None),
    "fields-homogeneity-one-point-of-four": (lambda mp: _one_inhomogeneous_point(), InputError,
                                             "homogeneous of degree 0", None),
    # 0 on the unit cosphere, 1 at the half-length nodes
    "fields-homogeneity-zero-on-cosphere": (
        lambda mp: fiber_ball_quadrature(np.eye(3), lambda xi: 1.0 * ((xi**2).sum(axis=-1) < 0.5)),
        InputError, "homogeneous of degree 0", None),
    "geometry-torsion-route": (_route_with_offset, ConsistencyError, "Hodge vs curl", (2, 5, 1)),
    "geometry-symbol-hermitian": (lambda mp: _skew_symbol(), InputError, "Hermitian", (1, 6, 3)),
    "operators-self-adjointness": (lambda mp: _self_adjointness(), ConsistencyError,
                                   "self-adjoint", (4, 4, 1)),
    "operators-gauge-unitarity": (
        lambda mp: dw.GaugeField(np.eye(2) * (1.0 + _bump((8, 8, 8, 1, 1), (0, 1, 2, 0, 0), 1e-9))),
        InputError, "unitary", (0, 1, 2)),
    "asymptotics-b-decomposition": (lambda mp: _b_decomposition(), ConsistencyError,
                                    "decomposition", (3, 0, 7)),
    "spectra-nyquist": (lambda mp: dw.galerkin_spectrum(_nyquist_potential(), 3),
                        ConsistencyError, "Nyquist", None),
    "spectra-galerkin-hermiticity": (lambda mp: _galerkin_hermiticity(), ConsistencyError,
                                     "not Hermitian", None),
}


@pytest.mark.parametrize("case", sorted(TRIPPED))
def test_tripped_gate_says_how_far_off_and_where(case, monkeypatch):
    trip, error, words, point = TRIPPED[case]
    with pytest.raises(error, match=words) as exc:
        trip(monkeypatch)
    text = str(exc.value)
    print(f"{case}: {text}")
    measured, bound, ratio = map(float, MESSAGE.search(text).groups())
    assert measured > bound > 0.0
    assert ratio == pytest.approx(measured / bound, rel=1e-2)
    where = POINT.search(text)
    assert (tuple(map(int, where.groups())) if where else None) == point


def _with_nan(values, point):
    out = np.array(values, dtype=np.result_type(values, float))
    out[point] = np.nan
    return out


def test_operator_with_a_nan_a0_entry_is_refused():
    op = dw.dirac_operator(dw.standard_frame(8))
    with pytest.raises(ConsistencyError, match=r"self-adjoint.*measured nan.*\(2, 3, 4\)"):
        dw.FirstOrderOperator(op.sigma, _with_nan(op.a0, (2, 3, 4, 1, 1)))


def test_symbol_with_a_nan_is_input_error():
    sigma = dw.symbol_from_frame(dw.standard_frame(8)).sigma
    with pytest.raises(InputError, match=r"measured nan.*\(0, 0, 5\)"):
        dw.PrincipalSymbolField(_with_nan(sigma, (0, 0, 5, 2, 0, 0)))


def test_gauge_field_of_nan_is_input_error():
    with pytest.raises(InputError, match="measured nan"):
        dw.GaugeField(np.full((8, 8, 8, 2, 2), np.nan))


def test_operator_refuses_a_raw_sigma_array():
    op = dw.dirac_operator(dw.standard_frame(8))
    with pytest.raises(InputError, match="PrincipalSymbolField, got ndarray"):
        dw.FirstOrderOperator(op.sigma.sigma, op.a0)


@pytest.mark.parametrize("reach", [np.nan, np.inf, -1.0])
def test_exact_tables_refuse_a_non_finite_reach(reach):
    with pytest.raises(InputError, match="positive and finite"):
        dw.torus_exact_spectrum((0, 0, 0), reach)
    with pytest.raises(InputError, match="positive and finite"):
        dw.sphere_exact_spectrum(reach)


def _structured_dirac():
    return dw.dirac_operator(dw.standard_frame(8))


def _standard_symbol():
    return dw.symbol_from_frame(dw.standard_frame(8))


# call -> the argument its refusal must name
NAN_THRESHOLDS = {
    "counting_bounds": (lambda: dw.counting_bounds(dw.torus_exact_spectrum((0, 0, 0), 5), np.nan),
                        "lam"),
    "counting_function": (
        lambda: dw.counting_function(dw.torus_exact_spectrum((0, 0, 0), 5), np.nan), "lam"),
    "mollified_count": (lambda: dw.mollified_count(dw.torus_exact_spectrum((0, 0, 0), 20), np.nan),
                        "lam"),
    "check_dirac-tol": (lambda: dw.check_dirac(_structured_dirac(), tol=np.nan), "tol"),
    # an infinite tol passed every operator, a shifted one included
    "check_dirac-tol-inf": (
        lambda: dw.check_dirac(dw.dirac_plus_scalar(dw.standard_frame(8), 0.3), tol=np.inf), "tol"),
    "galerkin-window": (lambda: dw.galerkin_spectrum(_structured_dirac(), 2, window=(np.nan, 0.5)),
                        "window"),
    "lattice_count-nan": (lambda: dw.lattice_count((0, 0, 0), np.nan), "radius"),
    "lattice_count-inf": (lambda: dw.lattice_count((0, 0, 0), np.inf), "radius"),
}


@pytest.mark.parametrize("case", sorted(NAN_THRESHOLDS))
def test_a_nan_threshold_is_refused_by_name(case):
    call, argument = NAN_THRESHOLDS[case]
    with pytest.raises(InputError, match=rf"\b{argument}\b"):
        call()


def _grid_of(matrix):
    """An 8^3 grid of copies of one matrix."""
    return np.broadcast_to(np.asarray(matrix, dtype=float), (8, 8, 8) + np.shape(matrix)).copy()


def _alternating_turn():
    """8^3 rotations alternating along x1 between the identity and a 0.9 pi turn about x3:
    their SU(2) lifts align by cos(0.45 pi) = 0.16, under the floor of 0.3."""
    c, s = np.cos(0.9 * np.pi), np.sin(0.9 * np.pi)
    o = _grid_of(np.eye(3))
    o[1::2] = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    return o


def _flipped_frame():
    e = _grid_of(np.eye(3))
    e[4:, :, :, 0, 0] = -1.0
    return dw.FrameField(e)


def _non_finite_frame():
    e = _grid_of(np.eye(3))
    e[1, 2, 3, 0, 0] = np.inf
    return dw.FrameField(e)


def _torus_table():
    return dw.torus_exact_spectrum((0, 0, 0), 10)


def _dependent_legs():
    return dw.orthonormalize_frame(_grid_of([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))


# call -> (error class, words its message keeps); no other test reached these branches
REFUSED_BRANCHES = {
    "frame-shape": (lambda: dw.FrameField(np.zeros((8, 8, 8, 3))), InputError,
                    "frame field must have shape"),
    "frame-non-finite": (_non_finite_frame, InputError, "non-finite"),
    "gauge-shape": (lambda: dw.GaugeField(np.zeros((8, 8, 8, 3, 3))), InputError,
                    "gauge field must have shape"),
    "lift-shape": (lambda: dw.su2_lift(np.zeros((8, 8, 8, 2, 2))), InputError,
                   "rotation field must have shape"),
    "lift-det-minus-one": (lambda: dw.su2_lift(_grid_of(np.diag([1.0, 1.0, -1.0]))), InputError,
                           "special orthogonal"),
    "lift-too-fast": (lambda: dw.su2_lift(_alternating_turn()), InputError,
                      "rotation field varies too fast between neighbouring grid points"),
    "galerkin-cutoff-0": (lambda: dw.galerkin_spectrum(_structured_dirac(), 0), InputError,
                          "mode_cutoff must be at least 1"),
    "twist-fractional": (lambda: dw.twisted_frame(1.5, 8), InputError, "must be an integer"),
    "random-amplitude": (lambda: dw.random_band_limited_frame(0, 8, amplitude=0.5), InputError,
                         "amplitude must lie in"),
    "scenario-without-table": (lambda: scenario_spectrum("dirac-plus-traceless", 5), InputError,
                               "has no exact spectrum"),
    "orientation-flips": (lambda: _flipped_frame().orientation(), ConsistencyError,
                          "orientation changes sign"),
    "orientation-zero-frame": (lambda: dw.FrameField(np.zeros((8, 8, 8, 3, 3))).orientation(),
                               EllipticityError, "degenerates at grid point"),
    "dependent-legs": (_dependent_legs, EllipticityError, "linearly dependent"),
    # each asked numpy for gigabytes and died with MemoryError
    "sphere-over-budget": (lambda: dw.sphere_exact_spectrum(1e9), InputError,
                           "sphere table of length 1999999998, over the budget of 4194304"),
    "lattice-radius-1e4": (lambda: dw.lattice_count((0, 0, 0), 1e4), InputError,
                           "radius 10000.0 needs q = 4|m - s|^2 up to 400000000, a histogram"),
    "lattice-radius-1024": (lambda: dw.lattice_count((0, 0, 0), 1024.0), InputError,
                            "radius 1024.0 needs q = 4|m - s|^2 up to 4194304"),
    "lattice-radius-1e5": (lambda: dw.lattice_count((0, 0, 0), 1e5), InputError,
                           "over the budget of 4194304; lower radius"),
    "galerkin-cube-100000": (lambda: dw.galerkin_spectrum(_structured_dirac(), 100000), InputError,
                             "Galerkin cutoff 100000 needs a cube of (2 cutoff + 1)^3 = "
                             "8000120000600001 modes, over the budget of 4194304"),
    "grid-100000": (lambda: dw.standard_frame(100000), InputError,
                    "grid size 100000 is over the ceiling of 128"),
    # each raised OverflowError squaring the radius
    "lattice-radius-1e300": (lambda: dw.lattice_count((0, 0, 0), 1e300), InputError,
                             "radius 1e+300 needs q = 4|m - s|^2 up to inf"),
    "torus-lambda-1e300": (lambda: dw.torus_exact_spectrum((0, 0, 0), 1e300), InputError,
                           "over the budget of 4194304; lower lambda_max"),
    # a twist the grid cannot resolve was aliased to another twist, k3 = 9 on 16^3 to -7
    "twist-9-on-16": (lambda: dw.twisted_frame(9, 16), InputError,
                      "twist number k3 = 9 needs a grid n > 2|k3| = 18, got 16"),
    "twist-nyquist": (lambda: dw.twisted_frame(-4, 8), InputError, "n > 2|k3| = 8, got 8"),
    # each raised TypeError or ValueError from inside numpy
    "galerkin-cutoff-2.5": (lambda: dw.galerkin_spectrum(_structured_dirac(), 2.5), InputError,
                            "mode_cutoff must be at least 1 and an integer, got 2.5"),
    "galerkin-cutoff-inf": (lambda: dw.galerkin_spectrum(_structured_dirac(), np.inf), InputError,
                            "mode_cutoff must be at least 1 and an integer, got inf"),
    "galerkin-cutoff-str": (lambda: dw.galerkin_spectrum(_structured_dirac(), "2"), InputError,
                            "mode_cutoff must be at least 1 and an integer, got '2'"),
    # ran as cutoff 1 and recorded mode_cutoff True
    "galerkin-cutoff-bool": (lambda: dw.galerkin_spectrum(_structured_dirac(), True), InputError,
                             "mode_cutoff must be at least 1 and an integer, got True"),
    "twist-inf": (lambda: dw.twisted_frame(np.inf, 8), InputError, "must be an integer, got inf"),
    "twist-nan": (lambda: dw.twisted_frame(np.nan, 8), InputError, "must be an integer, got nan"),
    "twist-1e20": (lambda: dw.twisted_frame(10**20, 8), InputError,
                   "needs a grid n > 2|k3| = 200000000000000000000"),
    "gauge-grid": (lambda: dw.gauge_transform(_structured_dirac(), dw.random_gauge_field(0, 16)),
                   InputError, "gauge field on the 16^3 grid and operator on the 8^3 grid"),
    # the non-real gate these replace could not fire: (1/2) tr(s_j R s^k R*) is real for every R
    "so3-scaled-identity": (lambda: dw.so3_from_su2(2.0 * np.eye(2)), InputError,
                            "input is not SU(2)"),
    "so3-shear": (lambda: dw.so3_from_su2(np.array([[1.0, 1.0], [0.0, 1.0]])), InputError,
                  "input is not SU(2)"),
    # unitary with the identity rotation, but det(i Id) = -1
    "so3-unit-phase": (lambda: dw.so3_from_su2(1j * np.eye(2)), InputError,
                       "determinant is not 1; input is not SU(2)"),
    "torsion-grid": (
        lambda: dw.torsion(dw.standard_frame(8), dw.MetricField(dw.symbol_from_frame(dw.standard_frame(4)))),
        InputError, "frame on the 8^3 grid and metric on the 4^3 grid"),
    # a NaN passed the strictly-increasing check, and the table then counted 0 below 1.5
    "spectrum-nan": (lambda: dw.SpectrumTable([0.0, np.nan, 1.0], [1, 1, 1], "x", (0.0, 2.0)),
                     InputError, "eigenvalues must be finite"),
    "spectrum-minus-inf": (lambda: dw.SpectrumTable([-np.inf, 1.0], [1, 1], "x", (0.0, 2.0)),
                           InputError, "eigenvalues must be finite"),
    # each raised TypeError from np.zeros or from comparing a string with 4
    "grid-float": (lambda: dw.standard_frame(8.0), InputError, "grid size must be an integer, got 8.0"),
    "grid-str": (lambda: dw.standard_frame("8"), InputError, "grid size must be an integer, got '8'"),
    "scenario-grid-str": (lambda: dw.build_scenario("standard-torus", "8"), InputError,
                          "grid size must be an integer, got '8'"),
    # float("1") passed the integer check and numpy raised UFuncTypeError
    "twist-str": (lambda: dw.twisted_frame("1", 8), InputError, "must be an integer, got 1"),
    # IndexError reading a third grid axis
    "integral-2d": (lambda: dw.grid_integral(np.zeros((8, 8))), InputError,
                    "three equal leading grid axes, got shape (8, 8)"),
    # LinAlgError: eigenvalues did not converge
    "ball-nan-metric": (lambda: fiber_ball_quadrature(np.full((3, 3), np.nan), lambda xi: 1.0),
                        InputError, "metric contains non-finite entries"),
    # each raised AttributeError, or TypeError from vars(), reading the wrong object
    "metric-of-array": (lambda: dw.MetricField(_grid_of(np.eye(3))), InputError,
                        "sym must be a PrincipalSymbolField, got ndarray"),
    "decode-metric-of-array": (lambda: dw.decode_metric(_grid_of(np.eye(3))), InputError,
                               "sym must be a PrincipalSymbolField, got ndarray"),
    "decode-frame-of-frame": (lambda: dw.decode_frame(dw.standard_frame(8)), InputError,
                              "sym must be a PrincipalSymbolField, got FrameField"),
    "charge-of-operator": (lambda: dw.topological_charge(_structured_dirac()), InputError,
                           "sym must be a PrincipalSymbolField, got FirstOrderOperator"),
    "torsion-of-symbol": (lambda: dw.torsion(_standard_symbol(), dw.decode_metric(_standard_symbol())),
                          InputError, "frame must be a FrameField, got PrincipalSymbolField"),
    "torsion-of-g-array": (lambda: dw.torsion(dw.standard_frame(8), _grid_of(np.eye(3))), InputError,
                           "metric must be a MetricField, got ndarray"),
    "coframe-of-symbol": (lambda: dw.coframe(_standard_symbol(), dw.decode_metric(_standard_symbol())),
                          InputError, "frame must be a FrameField, got PrincipalSymbolField"),
    "coframe-of-g-array": (lambda: dw.coframe(dw.standard_frame(8), _grid_of(np.eye(3))), InputError,
                           "metric must be a MetricField, got ndarray"),
    "check-dirac-of-symbol": (lambda: dw.check_dirac(_standard_symbol()), InputError,
                              "op must be a FirstOrderOperator, got PrincipalSymbolField"),
    "b-density-of-symbol": (lambda: dw.b_density(_standard_symbol()), InputError,
                            "op must be a FirstOrderOperator, got PrincipalSymbolField"),
    "galerkin-of-symbol": (lambda: dw.galerkin_spectrum(_standard_symbol(), 2), InputError,
                           "op must be a FirstOrderOperator, got PrincipalSymbolField"),
    "gauge-transform-of-symbol": (lambda: dw.gauge_transform(_standard_symbol(), dw.random_gauge_field(0, 8)),
                                  InputError, "op must be a FirstOrderOperator, got PrincipalSymbolField"),
    "gauge-transform-of-array": (lambda: dw.gauge_transform(_structured_dirac(), _grid_of(np.eye(2))),
                                 InputError, "gauge must be a GaugeField, got ndarray"),
    # AttributeError reading a0, and TypeError from float() on the symbol
    "subprincipal-of-symbol": (lambda: dw.subprincipal_symbol(_standard_symbol()), InputError,
                               "op must be a FirstOrderOperator, got PrincipalSymbolField"),
    "symbol-from-symbol": (lambda: dw.symbol_from_frame(_standard_symbol()), InputError,
                           "frame must be a FrameField or ndarray, got PrincipalSymbolField"),
    "dirac-of-symbol": (lambda: dw.dirac_operator(_standard_symbol()), InputError,
                        "frame must be a FrameField or ndarray, got PrincipalSymbolField"),
    "orthonormalize-symbol": (lambda: dw.orthonormalize_frame(_standard_symbol()), InputError,
                              "e must be a ndarray, got PrincipalSymbolField"),
    "lift-of-symbol": (lambda: dw.su2_lift(_standard_symbol()), InputError,
                       "o_field must be a ndarray, got PrincipalSymbolField"),
    # TypeError comparing a string with 0.0
    "counting-function-str": (lambda: dw.counting_function(_torus_table(), "3"), InputError,
                              "counting threshold lam must be positive, got '3'"),
    "counting-bounds-str": (lambda: dw.counting_bounds(_torus_table(), "3"), InputError,
                            "counting threshold lam must be positive, got '3'"),
    "mollified-lam-str": (lambda: dw.mollified_count(_torus_table(), "3"), InputError,
                          "lam must be positive, got '3'"),
    "torus-lambda-str": (lambda: dw.torus_exact_spectrum((0, 0, 0), "x"), InputError,
                         "lambda_max must be positive and finite, got x"),
    "sphere-lambda-str": (lambda: dw.sphere_exact_spectrum("x"), InputError,
                          "lambda_max must be positive and finite, got x"),
    # ValueError from float() of a string
    "mollified-width-str": (lambda: dw.mollified_count(_torus_table(), 3.0, "x"), InputError,
                            "kernel_width must lie in (0, 2*pi), got 'x'"),
    "torus-shift-str": (lambda: dw.torus_exact_spectrum("abc", 10), InputError,
                        "spin-structure shift must lie in {0, 1/2}^3, got 'abc'"),
    "lattice-center-str": (lambda: dw.lattice_count("abc", 3.0), InputError,
                           "center must be a finite 3-vector and radius positive and finite, "
                           "got center abc"),
    # UFuncTypeError multiplying a string by the sample points
    "comparison-a-str": (lambda: dw.asymptotic_comparison(_torus_table(), "x", 0.0, (1, 5)),
                         InputError, "a_global must be a Real, got str"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_BRANCHES))
def test_refusal_branch_raises_its_error(case):
    call, error, words = REFUSED_BRANCHES[case]
    with pytest.raises(error, match=re.escape(words)):
        call()


@pytest.mark.parametrize("case", ["galerkin-cube-100000", "grid-100000",
                                  "lattice-radius-1e300", "torus-lambda-1e300", "twist-1e20"])
def test_over_budget_request_is_refused_before_allocating(case, peak_mb):
    call, error, _ = REFUSED_BRANCHES[case]

    def refused():
        with pytest.raises(error):
            call()

    assert peak_mb(refused) < 10.0
