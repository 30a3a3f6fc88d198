"""diracweyl: geometry hidden in 2x2 first-order elliptic operators.

Decode an orthonormal frame, Riemannian metric, topological charge and
teleparallel torsion from a principal symbol on the 3-torus; compute
two-term spectral growth coefficients; decide whether an operator is a
massless Dirac operator; and validate against exact Dirac spectra.

``import diracweyl`` loads neither numpy nor a submodule: each exported
name imports its module on first use, so the command line answers
--version, --help and refused input without the numerical modules.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it exports
_EXPORTS = {
    "asymptotics": (
        "AsymptoticCoefficients",
        "b1_density_fiber",
        "b2_density_fiber_curvature",
        "b2_density_fiber_torsion",
        "b_density",
        "u1_curvature",
    ),
    "errors": ("ConsistencyError", "DiracweylError", "EllipticityError", "InputError"),
    "fields": (
        "PeriodicChart",
        "fiber_ball_quadrature",
        "grid_integral",
        "spectral_derivative",
    ),
    "geometry": (
        "FrameField",
        "MetricField",
        "PrincipalSymbolField",
        "TorsionBundle",
        "coframe",
        "decode_frame",
        "decode_metric",
        "orthonormalize_frame",
        "symbol_from_frame",
        "topological_charge",
        "torsion",
    ),
    "operators": (
        "DiracVerdict",
        "FirstOrderOperator",
        "GaugeField",
        "Obstruction",
        "check_dirac",
        "dirac_operator",
        "gauge_transform",
        "so3_from_su2",
        "su2_lift",
        "subprincipal_symbol",
    ),
    "scenarios": (
        "build_scenario",
        "dirac_plus_scalar",
        "dirac_plus_traceless",
        "random_band_limited_frame",
        "random_gauge_field",
        "standard_frame",
        "twisted_frame",
    ),
    "serialize": (
        "load_frame",
        "load_operator",
        "load_symbol",
        "save_frame",
        "save_operator",
        "save_symbol",
    ),
    "spectra": (
        "CountingReport",
        "SpectrumTable",
        "SpinStructure",
        "all_spin_structures",
        "asymptotic_comparison",
        "counting_bounds",
        "counting_function",
        "galerkin_spectrum",
        "lattice_count",
        "mollified_count",
        "sphere_exact_spectrum",
        "torus_exact_spectrum",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    # Read from the module on every access rather than cached here, so a
    # name rebound in its module (a wrapper, a test's monkeypatch) is seen.
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:  # diracweyl.geometry and the like, before their first import
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
