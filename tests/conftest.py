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


@pytest.fixture(scope="session")
def curved_frame():
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
