import hypothesis
import numpy as np
import pytest

from ergolab.observables import _FLOAT_FREQ_LIMIT, phase_correlations
from ergolab.phases import TWO_PI, frac_combo

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


def ref_evaluate(f, points):
    """`evaluate` written plainly, the reference for its bits.  Over every
    point at once, each step a numpy ufunc with a fresh output: a term's
    phase is x_0 k_0 + x_1 k_1 + ... from the left in float64 (reduced
    exactly past _FLOAT_FREQ_LIMIT), its unit is exp(2 pi i phase), zero
    frequencies included, and the terms are added in order, c * unit + sum,
    to a zeros buffer.  `evaluate` takes no exp for a zero frequency; at a
    finite point the two agree bit for bit, but where a non-finite
    coordinate meets a zero frequency the phase is NaN and they differ, so
    tests keep such points away from zero frequencies."""
    pts = np.asarray(points, dtype=np.float64)
    flat = pts.reshape(-1, pts.shape[-1])[:, :f.dim]
    out = np.zeros(len(flat), dtype=np.complex128)
    for k, c in f.terms:
        if max(abs(v) for v in k) > _FLOAT_FREQ_LIMIT:
            phase = np.array([frac_combo(zip(k, row)) for row in flat],
                             dtype=np.float64)
        else:
            phase = np.multiply(flat[:, 0], float(k[0]))
            for j in range(1, f.dim):
                phase = np.add(phase, np.multiply(flat[:, j], float(k[j])))
        unit = np.exp(np.multiply(TWO_PI * 1j, phase))
        out = np.add(np.multiply(c, unit), out)
    out = out.reshape(pts.shape[:-1])
    return complex(out) if pts.ndim == 1 else out


def one_correlations(f, system, rows) -> list[complex]:
    """phase_correlations of one observable: its terms as one coefficient
    row."""
    coeffs = np.array([[c for _, c in f.terms]], dtype=np.complex128)
    return phase_correlations(f.dim, [k for k, _ in f.terms], coeffs, system,
                              rows)[0].tolist()
