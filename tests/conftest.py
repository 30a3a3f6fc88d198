"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


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
