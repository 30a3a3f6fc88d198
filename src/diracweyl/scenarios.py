"""Ready-made frames and operators, and the named scenarios of the CLI.

Each builder returns plain library objects (FrameField,
FirstOrderOperator, ...) on an n^3 periodic grid.  SCENARIOS is the one
table of named scenarios: the parameters each reads with their
defaults, the frame it builds, the operator on that frame and its exact
spectrum, if it has one.
The module imports no numpy: the command line reads the table to parse
and check a request, and each builder imports the numerical modules
when it is called.
"""

from __future__ import annotations

from itertools import product
from numbers import Real
from operator import index
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import InputError

if TYPE_CHECKING:
    import numpy as np

    from .geometry import FrameField
    from .operators import FirstOrderOperator, GaugeField
    from .spectra import SpectrumTable

_DEFAULT_GRID = 16

# A random frame's Gram-Schmidt overtones stay below the operator's 1e-10
# self-adjointness gate on a 16^3 grid at this amplitude; at 0.01 they
# need 24^3 (tests/test_scenarios.py::test_random_frame_resolution_limit).
_DEFAULT_AMPLITUDE = 0.003

# Fourier modes |m|_inf <= _RANDOM_MAX_MODE perturb a random frame.
_RANDOM_MAX_MODE = 2


def standard_frame(n: int = _DEFAULT_GRID) -> FrameField:
    """The constant coordinate frame on the flat torus."""
    import numpy as np

    from .fields import PeriodicChart
    from .geometry import FrameField

    PeriodicChart(n)  # refuse a bad n before allocating
    e = np.zeros((n, n, n, 3, 3))
    for j in range(3):
        e[..., j, j] = 1.0
    return FrameField(e)


def twisted_frame(k3: int, n: int = _DEFAULT_GRID) -> FrameField:
    """Frame rotating k3 times about the third axis along x^3.

    The metric is still flat Euclidean but the frame is topologically
    twisted: for odd k3 the induced rotation field admits no global
    spin lift.  The grid must resolve the twist, n > 2|k3|; a coarser
    grid would alias it to another twist.
    """
    import numpy as np

    from .fields import PeriodicChart
    from .geometry import FrameField

    if not (isinstance(k3, int) or isinstance(k3, Real) and float(k3).is_integer()):
        raise InputError(f"twist number k3 must be an integer, got {k3}")
    chart = PeriodicChart(n)
    if 2 * abs(int(k3)) >= n:
        raise InputError(f"twist number k3 = {k3} needs a grid n > 2|k3| = {2 * abs(int(k3))}, "
                         f"got {n}")
    _, _, x3 = chart.mesh()
    c, s = np.cos(k3 * x3), np.sin(k3 * x3)
    e = np.zeros((n, n, n, 3, 3))
    e[..., 0, 0] = c
    e[..., 0, 1] = s
    e[..., 1, 0] = -s
    e[..., 1, 1] = c
    e[..., 2, 2] = 1.0
    return FrameField(e)


def _trig_polynomial(modes: tuple, coef: np.ndarray, n: int) -> np.ndarray:
    """sum_m coef[m, 0] cos(m . x) + coef[m, 1] sin(m . x) on the n^3 grid, by one inverse FFT.

    Each mode puts a - ib in its bin; modes that alias onto one bin of a
    coarse grid add up there, as their sampled cosines and sines do.
    """
    import numpy as np

    from .fields import PeriodicChart

    PeriodicChart(n)  # refuse a bad n before allocating
    spectrum = np.zeros((n, n, n) + coef.shape[2:], dtype=complex)
    np.add.at(spectrum, tuple((np.array(modes) % n).T), coef[:, 0] - 1j * coef[:, 1])
    return n**3 * np.fft.ifftn(spectrum, axes=(0, 1, 2)).real


_FRAME_MODES = tuple(
    m for m in product(range(-_RANDOM_MAX_MODE, _RANDOM_MAX_MODE + 1), repeat=3) if any(m)
)
_GAUGE_MODES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1))


def _rng(seed):
    """numpy's generator of a seed, which must be a non-negative integer."""
    import numpy as np

    try:
        value = index(seed)  # int or numpy integer; no float, string or sequence
    except TypeError:
        value = -1
    if value < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(value)


def random_band_limited_frame(
    seed: int,
    n: int = _DEFAULT_GRID,
    amplitude: float = _DEFAULT_AMPLITUDE,
) -> FrameField:
    """Random orientation-preserving orthonormal frame, g = identity.

    Perturbs the identity by a random trigonometric polynomial with
    modes up to _RANDOM_MAX_MODE, built by one inverse FFT of its
    coefficients, then Gram-Schmidts the rows in the Euclidean inner
    product.  The rows stay exactly orthonormal pointwise (so the
    decoded metric is the identity); the frame is analytic but no longer
    strictly band-limited, so keep the amplitude moderate for
    spectrally-accurate derivatives on coarse grids.
    """
    import numpy as np

    from .geometry import orthonormalize_frame

    rng = _rng(seed)
    if amplitude < 0.0 or amplitude >= 0.5:
        raise InputError("amplitude must lie in [0, 0.5) to keep the frame nondegenerate")
    coef = rng.standard_normal((len(_FRAME_MODES), 2, 3, 3))
    pert = _trig_polynomial(_FRAME_MODES, coef, n)
    peak = np.abs(pert).max()
    if peak > 0:
        pert *= amplitude / peak
    return orthonormalize_frame(standard_frame(n).e + pert)


def random_gauge_field(seed: int, n: int = _DEFAULT_GRID, amplitude: float = 0.04) -> GaugeField:
    """Smooth random SU(2) field R = cos(t) - i sin(t) (u . s).

    The angle t and axis u are low-mode trigonometric polynomials, all
    four components built by one inverse FFT, so R is analytic and
    pointwise exactly special unitary.  The axis is a perturbed constant
    direction to keep it nonvanishing.  Composing trigonometric
    functions leaves the analytic tail, not the grid, as the accuracy
    limit; the default amplitude keeps gauge-transformed operators
    inside the 1e-10 self-adjointness gate on a 16^3 grid.
    """
    import numpy as np

    from .geometry import pauli_matrices
    from .operators import GaugeField

    coef = _rng(seed).standard_normal((4, len(_GAUGE_MODES), 2))
    fields = _trig_polynomial(_GAUGE_MODES, np.moveaxis(coef, 0, -1), n)  # t, u^1, u^2, u^3
    fields = amplitude * fields / np.abs(fields).max(axis=(0, 1, 2))
    theta = fields[..., 0]
    axis = fields[..., 1:]
    axis[..., 0] += 1.0
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    r = (
        np.cos(theta)[..., None, None] * np.eye(2)
        - 1j * np.sin(theta)[..., None, None] * pauli_matrices(axis)
    )
    return GaugeField(r)


def dirac_plus_scalar(frame: FrameField, q: float) -> FirstOrderOperator:
    """The Dirac operator of the frame shifted by a constant scalar potential, |q| <= 1e300."""
    import numpy as np

    from .operators import _A0_LIMIT, FirstOrderOperator, dirac_operator

    if not abs(q) <= _A0_LIMIT:
        raise InputError(f"q = {q} is over the limit |q| <= {_A0_LIMIT:g}: the torus integral of "
                         f"b overflows float64 past |q| of about 1.7e303 at the 128^3 grid ceiling")
    op = dirac_operator(frame)
    return FirstOrderOperator(op.sigma, op.a0 + q * np.eye(2))


def dirac_plus_traceless(frame: FrameField, epsilon: float) -> FirstOrderOperator:
    """The Dirac operator plus a constant traceless Hermitian perturbation."""
    from .geometry import PAULI
    from .operators import FirstOrderOperator, dirac_operator

    op = dirac_operator(frame)
    return FirstOrderOperator(op.sigma, op.a0 + epsilon * PAULI[2])


def _dirac(frame: FrameField, **_) -> FirstOrderOperator:
    from .operators import dirac_operator

    return dirac_operator(frame)


def _torus_spectrum(shift: tuple, lambda_max: float) -> SpectrumTable:
    from .spectra import SpinStructure, torus_exact_spectrum

    return torus_exact_spectrum(SpinStructure(shift), lambda_max)


def _sphere_spectrum(lambda_max: float) -> SpectrumTable:
    from .spectra import sphere_exact_spectrum

    return sphere_exact_spectrum(lambda_max)


def _shifted_torus_spectrum(lambda_max: float, q: float) -> SpectrumTable:
    """Adding q*I shifts every eigenvalue of the flat operator by q.

    The shifted table is cut from an unshifted one reaching
    lambda_max + |q|; a reach the exact table refuses is refused naming q.
    lambda_max itself must be positive and finite, as for every exact
    table: the reach alone would pass a lambda_max <= 0 when |q| is larger.
    """
    from .spectra import SpectrumTable

    if not 0.0 < lambda_max < float("inf"):
        raise InputError(f"lambda_max must be positive and finite, got {lambda_max}")
    reach = lambda_max + abs(q)
    try:
        base = _torus_spectrum((0.0, 0.0, 0.0), reach)
    except InputError as exc:
        raise InputError(f"q = {q} shifts every eigenvalue, so the exact table must reach "
                         f"lambda_max + |q| = {reach}, which it refuses; lower lambda_max or |q|"
                         ) from exc
    lo, hi = base.coverage
    return SpectrumTable(
        base.values + q, base.multiplicities, "exact-shifted", (lo + q, hi + q), {"q": q}
    )


class Scenario(NamedTuple):
    """One named scenario.

    params maps every parameter the scenario reads to its default.
    frame(grid, **params) builds its frame and spectrum(lambda_max,
    **params) its exact eigenvalue table; either may be absent, and a
    scenario without a frame has no operator.  operator(frame, **params)
    builds the operator on the frame, by default its Dirac operator.
    growth is the two-term law (a, b) of a table that has no operator to
    compute it from.
    """

    params: dict
    frame: Callable | None = None
    spectrum: Callable | None = None
    operator: Callable = _dirac
    growth: tuple | None = None


SCENARIOS = {
    "standard-torus": Scenario({}, standard_frame, lambda lam: _torus_spectrum((0.0, 0.0, 0.0), lam)),
    # k3 turns of the frame along x^3 lift to the spin structure shifted by k3/2 there
    "twisted-torus": Scenario({"k3": 1}, lambda n, k3: twisted_frame(k3, n),
                              lambda lam, k3: _torus_spectrum((0.0, 0.0, (k3 % 2) / 2.0), lam)),
    "dirac-plus-scalar": Scenario({"q": 0.3}, lambda n, q: standard_frame(n), _shifted_torus_spectrum,
                                  dirac_plus_scalar),
    "dirac-plus-traceless": Scenario({"epsilon": 0.1}, lambda n, epsilon: standard_frame(n),
                                     operator=dirac_plus_traceless),
    "random-band-limited": Scenario(
        {"seed": 0, "amplitude": _DEFAULT_AMPLITUDE},
        lambda n, seed, amplitude: random_band_limited_frame(seed, n, amplitude),
    ),
    # the round unit 3-sphere counts exactly lambda^3/3 - lambda/3
    "sphere": Scenario({}, spectrum=_sphere_spectrum, growth=(1.0 / 3.0, 0.0)),
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
    return SCENARIOS[name].operator(_scenario_frame(name, grid, params), **params)


def _scenario_frame(name: str, grid: int, params: dict) -> FrameField:
    """The frame the named scenario builds its operator on; params as scenario_params gives them."""
    if SCENARIOS[name].frame is None:
        raise InputError(
            f"scenario {name!r} only provides an exact spectrum; "
            "it has no operator on the torus grid"
        )
    return SCENARIOS[name].frame(grid, **params)


def scenario_spectrum(name: str, lambda_max: float, **params) -> SpectrumTable:
    """The named scenario's exact eigenvalue table up to lambda_max."""
    params = scenario_params(name, **params)
    if SCENARIOS[name].spectrum is None:
        raise InputError(f"scenario {name!r} has no exact spectrum; solve it by Galerkin")
    return SCENARIOS[name].spectrum(lambda_max, **params)
