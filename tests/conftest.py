import hypothesis
import numpy as np
import pytest

from ergolab.observables import phase_correlations

hypothesis.settings.register_profile(
    "default", max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


def circle_dist(a, b) -> float:
    """Max per-coordinate distance on the torus."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return float(np.max(np.minimum(d, 1.0 - d)))


@pytest.fixture
def assert_on_circle():
    def inner(a, b, tol):
        assert circle_dist(a, b) <= tol, (a, b, circle_dist(a, b))
    return inner


def one_correlations(f, system, rows) -> list[complex]:
    """phase_correlations of one observable: its terms as one coefficient
    row."""
    coeffs = np.array([[c for _, c in f.terms]], dtype=np.complex128)
    return phase_correlations(f.dim, [k for k, _ in f.terms], coeffs, system,
                              rows)[0].tolist()
