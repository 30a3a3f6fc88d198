"""Fixtures shared by the test modules."""

import tracemalloc

import numpy as np
import pytest

import diracweyl as dw


@pytest.fixture
def peak_mb():
    """Traced allocation peak of one call, in MB, measured after a warm-up call."""

    def measure(fn):
        fn()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture(scope="session")
def nyquist_operator():
    """The 8^3 standard Dirac operator plus 0.1 cos(4 x1) I, a potential at the Nyquist mode."""
    op = dw.dirac_operator(dw.standard_frame(8))
    x1 = dw.PeriodicChart(8).mesh()[0]
    return dw.FirstOrderOperator(op.sigma, op.a0 + 0.1 * np.cos(4 * x1)[..., None, None] * np.eye(2))


def make_curved_frame():
    """A frame with a non-flat metric and torsion, depending on x^3 alone.

    e1 = f (cos x3, sin x3, 0), e2 = (-sin x3, cos x3, 0), e3 = d3 with
    f = 1 + 0.1 cos x3, on 24^3: at 16^3 its Dirac operator misses the
    1e-10 self-adjointness gate.
    """
    n = 24
    x3 = dw.PeriodicChart(n).mesh()[2]
    f = 1.0 + 0.1 * np.cos(x3)
    e = np.zeros((n, n, n, 3, 3))
    e[..., 0, 0], e[..., 0, 1] = f * np.cos(x3), f * np.sin(x3)
    e[..., 1, 0], e[..., 1, 1] = -np.sin(x3), np.cos(x3)
    e[..., 2, 2] = 1.0
    return dw.FrameField(e)


@pytest.fixture(scope="session")
def curved_frame():
    return make_curved_frame()


@pytest.fixture(scope="session")
def warped_frame():
    """Builder of the n^3 warped frame e1 = f d1, e2 = d2, e3 = d3, f = 1 + 0.1 cos x3.

    p is band-limited; g_cov = diag(1/f^2, 1, 1) is not.
    """

    def build(n):
        e = np.broadcast_to(np.eye(3), (n, n, n, 3, 3)).copy()
        e[..., 0, 0] = 1.0 + 0.1 * np.cos(dw.PeriodicChart(n).mesh()[2])
        return dw.FrameField(e)

    return build


def make_pullback_frame(name, n):
    """(frame, J, dphi) for the flat frame pulled back by the torus diffeomorphism `name` on n^3.

    The frame is e' = (d phi)^{-1} e, row j the leg e'_j, and J = det d phi:
    * "shear", phi = (x1 + 0.3 sin x3, x2, x3): e'_3 = d3 - 0.3 cos x3 d1, J = 1;
    * "stretch", phi = (x1, x2, x3 + 0.1 sin x3): e'_3 = d3 / J, J = 1 + 0.1 cos x3;
    * "two-shear", x2 moved by 0.2 sin x1, then x1 by 0.3 sin x3:
      phi = (x1 + 0.3 sin x3, x2 + 0.2 sin x1, x3), J = 1, and e' is the
      transpose of (I - 0.2 cos x1 E21)(I - 0.3 cos x3 E13): 9 Fourier
      modes on a rank-2 lattice, so its Galerkin blocks couple two directions.
    On half-densities its Dirac operator is unitarily equivalent to the flat
    one, so its torsion is 0, its charge 1, its g_cov is dphi^T dphi, and its
    densities a(x), b(x) are the flat ones times J.  The stretch is not
    band-limited: use 16^3 or finer.
    """
    x1, _, x3 = dw.PeriodicChart(n).mesh()
    dphi = np.broadcast_to(np.eye(3), (n, n, n, 3, 3)).copy()
    e = dphi.copy()
    if name == "shear":
        dphi[..., 0, 2] = 0.3 * np.cos(x3)
        e[..., 2, 0] = -0.3 * np.cos(x3)
    elif name == "stretch":
        dphi[..., 2, 2] = 1.0 + 0.1 * np.cos(x3)
        e[..., 2, 2] = 1.0 / dphi[..., 2, 2]
    elif name == "two-shear":
        dphi[..., 0, 2], dphi[..., 1, 0] = 0.3 * np.cos(x3), 0.2 * np.cos(x1)
        e[..., 2, 0], e[..., 0, 1] = -dphi[..., 0, 2], -dphi[..., 1, 0]
        e[..., 2, 1] = dphi[..., 0, 2] * dphi[..., 1, 0]
    else:
        raise ValueError(f"no pullback map named {name!r}")
    return dw.FrameField(e), np.linalg.det(dphi), dphi


@pytest.fixture(scope="session")
def pullback_frame():
    return make_pullback_frame
