"""Ready-made frames and operators, and the named scenarios of the CLI.

Each builder returns plain library objects (FrameField,
FirstOrderOperator, ...) on an n^3 periodic grid.  SCENARIOS is the one
table of named scenarios: the parameters each reads with their
defaults, the operator it builds and its exact spectrum, if it has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .fields import PeriodicChart
from .geometry import PAULI, FrameField, orthonormalize_frame
from .operators import FirstOrderOperator, GaugeField, dirac_operator
from .spectra import SpectrumTable, SpinStructure, sphere_exact_spectrum, torus_exact_spectrum

_DEFAULT_GRID = 16

# Largest perturbation for which Gram-Schmidt overtones still decay
# below the operator's 1e-10 self-adjointness gate on a 16^3 grid
# (overtone amplitude scales like the fourth power of this number).
_DEFAULT_AMPLITUDE = 0.003

# Fourier modes |m|_inf <= _RANDOM_MAX_MODE perturb a random frame.
_RANDOM_MAX_MODE = 2


def standard_frame(n: int = _DEFAULT_GRID) -> FrameField:
    """The constant coordinate frame on the flat torus."""
    e = np.zeros((n, n, n, 3, 3))
    for j in range(3):
        e[..., j, j] = 1.0
    return FrameField(e)


def twisted_frame(k3: int, n: int = _DEFAULT_GRID) -> FrameField:
    """Frame rotating k3 times about the third axis along x^3.

    The metric is still flat Euclidean but the frame is topologically
    twisted: for odd k3 the induced rotation field admits no global
    spin lift.
    """
    if int(k3) != k3:
        raise InputError("twist number k3 must be an integer")
    _, _, x3 = PeriodicChart(n).mesh()
    c, s = np.cos(k3 * x3), np.sin(k3 * x3)
    e = np.zeros((n, n, n, 3, 3))
    e[..., 0, 0] = c
    e[..., 0, 1] = s
    e[..., 1, 0] = -s
    e[..., 1, 1] = c
    e[..., 2, 2] = 1.0
    return FrameField(e)


def random_band_limited_frame(
    seed: int,
    n: int = _DEFAULT_GRID,
    amplitude: float = _DEFAULT_AMPLITUDE,
) -> FrameField:
    """Random orientation-preserving orthonormal frame, g = identity.

    Perturbs the identity by a random trigonometric polynomial with
    modes up to _RANDOM_MAX_MODE, then Gram-Schmidts the rows in the Euclidean
    inner product.  The rows stay exactly orthonormal pointwise (so the
    decoded metric is the identity); the frame itself is analytic but
    no longer strictly band-limited, so keep the amplitude moderate for
    spectrally-accurate derivatives on coarse grids.
    """
    if amplitude < 0.0 or amplitude >= 0.5:
        raise InputError("amplitude must lie in [0, 0.5) to keep the frame nondegenerate")
    rng = np.random.default_rng(seed)
    x1, x2, x3 = PeriodicChart(n).mesh()
    ax = range(-_RANDOM_MAX_MODE, _RANDOM_MAX_MODE + 1)
    ms = [(m1, m2, m3) for m1 in ax for m2 in ax for m3 in ax if (m1, m2, m3) != (0, 0, 0)]
    pert = np.zeros((n, n, n, 3, 3))
    for m in ms:
        phase = m[0] * x1 + m[1] * x2 + m[2] * x3
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        pert += np.cos(phase)[..., None, None] * a + np.sin(phase)[..., None, None] * b
    peak = np.abs(pert).max()
    if peak > 0:
        pert *= amplitude / peak
    e = standard_frame(n).e + pert
    return orthonormalize_frame(e)


def random_gauge_field(seed: int, n: int = _DEFAULT_GRID, amplitude: float = 0.04) -> GaugeField:
    """Smooth random SU(2) field R = cos(t) - i sin(t) (u . s).

    The angle t and axis u are low-mode trigonometric polynomials, so R
    is analytic and pointwise exactly special unitary.  The axis is a
    perturbed constant direction to keep it nonvanishing.  Composing
    trigonometric functions leaves the analytic tail, not the grid, as
    the accuracy limit; the default amplitude keeps gauge-transformed
    operators inside the 1e-10 self-adjointness gate on a 16^3 grid.
    """
    rng = np.random.default_rng(seed)
    x1, x2, x3 = PeriodicChart(n).mesh()

    def scalar(scale):
        f = np.zeros((n, n, n))
        for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)]:
            phase = m[0] * x1 + m[1] * x2 + m[2] * x3
            f += rng.standard_normal() * np.cos(phase) + rng.standard_normal() * np.sin(phase)
        peak = np.abs(f).max()
        return scale * f / peak if peak > 0 else f

    theta = scalar(amplitude)
    axis = np.stack(
        [1.0 + scalar(amplitude), scalar(amplitude), scalar(amplitude)], axis=-1
    )
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    n_dot_s = np.einsum("...j,jpq->...pq", axis, PAULI)
    r = (
        np.cos(theta)[..., None, None] * np.eye(2)
        - 1j * np.sin(theta)[..., None, None] * n_dot_s
    )
    return GaugeField(r)


def dirac_plus_scalar(frame: FrameField, q: float) -> FirstOrderOperator:
    """The Dirac operator of the frame shifted by a constant scalar potential."""
    op = dirac_operator(frame)
    a0 = op.a0 + q * np.eye(2)
    return FirstOrderOperator(op.sigma, a0)


def dirac_plus_traceless(frame: FrameField, epsilon: float) -> FirstOrderOperator:
    """The Dirac operator plus a constant traceless Hermitian perturbation."""
    op = dirac_operator(frame)
    a0 = op.a0 + epsilon * PAULI[2]
    return FirstOrderOperator(op.sigma, a0)


def _shifted_torus_spectrum(lambda_max: float, q: float) -> SpectrumTable:
    """Adding q*I shifts every eigenvalue of the flat operator by q."""
    base = torus_exact_spectrum(SpinStructure((0.0, 0.0, 0.0)), lambda_max + abs(q))
    lo, hi = base.coverage
    return SpectrumTable(
        base.values + q, base.multiplicities, "exact-shifted", (lo + q, hi + q), {"q": q}
    )


@dataclass(frozen=True)
class Scenario:
    """One named scenario.

    params maps every parameter the scenario reads to its default.
    operator(grid, **params) builds its operator and spectrum(lambda_max,
    **params) its exact eigenvalue table; either may be absent.  growth
    is the two-term law (a, b) of a table that has no operator to
    compute it from.
    """

    params: dict
    operator: Callable | None = None
    spectrum: Callable | None = None
    growth: tuple | None = None


SCENARIOS = {
    "standard-torus": Scenario(
        {},
        lambda n: dirac_operator(standard_frame(n)),
        lambda lam: torus_exact_spectrum(SpinStructure((0.0, 0.0, 0.0)), lam),
    ),
    # k3 turns of the frame along x^3 lift to the spin structure shifted by k3/2 there
    "twisted-torus": Scenario(
        {"k3": 1},
        lambda n, k3: dirac_operator(twisted_frame(k3, n)),
        lambda lam, k3: torus_exact_spectrum(SpinStructure((0.0, 0.0, (k3 / 2.0) % 1.0)), lam),
    ),
    "dirac-plus-scalar": Scenario(
        {"q": 0.3}, lambda n, q: dirac_plus_scalar(standard_frame(n), q), _shifted_torus_spectrum
    ),
    "dirac-plus-traceless": Scenario(
        {"epsilon": 0.1}, lambda n, epsilon: dirac_plus_traceless(standard_frame(n), epsilon)
    ),
    "random-band-limited": Scenario(
        {"seed": 0, "amplitude": _DEFAULT_AMPLITUDE},
        lambda n, seed, amplitude: dirac_operator(random_band_limited_frame(seed, n, amplitude)),
    ),
    # the round unit 3-sphere counts exactly lambda^3/3 - lambda/3
    "sphere": Scenario({}, spectrum=sphere_exact_spectrum, growth=(1.0 / 3.0, 0.0)),
}

SCENARIO_NAMES = tuple(SCENARIOS)


def scenario_params(name: str, **given) -> dict:
    """Every parameter the named scenario reads: its defaults, updated by given.

    A parameter the scenario does not read is refused rather than dropped.
    """
    if name not in SCENARIOS:
        raise InputError(f"unknown scenario {name!r}; choose one of {SCENARIO_NAMES}")
    params = SCENARIOS[name].params
    unread = [k for k in given if k not in params]
    if unread:
        reads = ", ".join(params) or "no parameters"
        raise InputError(f"scenario {name!r} does not read {', '.join(unread)}; it reads {reads}")
    return {**params, **given}


def build_scenario(name: str, grid: int = _DEFAULT_GRID, **params) -> FirstOrderOperator:
    """The named scenario's operator on a grid^3 grid; params override its defaults."""
    params = scenario_params(name, **params)
    if SCENARIOS[name].operator is None:
        raise InputError(
            f"scenario {name!r} only provides an exact spectrum; "
            "it has no operator on the torus grid"
        )
    return SCENARIOS[name].operator(grid, **params)


def scenario_spectrum(name: str, lambda_max: float, **params) -> SpectrumTable:
    """The named scenario's exact eigenvalue table up to lambda_max."""
    params = scenario_params(name, **params)
    if SCENARIOS[name].spectrum is None:
        raise InputError(f"scenario {name!r} has no exact spectrum; solve it by Galerkin")
    return SCENARIOS[name].spectrum(lambda_max, **params)
