"""Tests for the from-scratch Levenberg-Marquardt implementation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import FitError
from repro.tuning.lma import fit_power_law, levenberg_marquardt


class TestGenericLMA:
    def test_fits_a_line(self):
        x = np.linspace(1, 10, 20)
        y = 3.0 * x + 2.0

        def residual(p):
            return p[0] * x + p[1] - y

        def jacobian(p):
            return np.stack([x, np.ones_like(x)], axis=1)

        result = levenberg_marquardt(
            residual, jacobian, np.array([1.0, 0.0])
        )
        np.testing.assert_allclose(result.params, [3.0, 2.0], atol=1e-6)
        assert result.converged

    def test_respects_bounds(self):
        x = np.linspace(1, 10, 20)
        y = -5.0 * x

        def residual(p):
            return p[0] * x - y

        def jacobian(p):
            return x[:, None]

        result = levenberg_marquardt(
            residual,
            jacobian,
            np.array([1.0]),
            lower_bounds=np.array([0.0]),
        )
        assert result.params[0] >= 0.0


class TestPowerLawFit:
    @pytest.mark.parametrize(
        "a,b,c",
        [
            (2.0, 1.0, 5.0),
            (0.5, 1.5, 100.0),
            (3.0, 0.7, 0.0),
            (1e3, 1.2, 1e4),
        ],
    )
    def test_recovers_exact_parameters(self, a, b, c):
        x = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
        y = a * x**b + c
        result = fit_power_law(x, y, seed=1)
        fitted = result.params
        np.testing.assert_allclose(
            fitted[0] * x ** fitted[1] + fitted[2], y, rtol=1e-4
        )

    def test_robust_to_noise(self):
        rng = np.random.default_rng(5)
        x = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        clean = 4.0 * x**1.1 + 50.0
        noisy = clean * (1.0 + 0.02 * rng.standard_normal(x.size))
        result = fit_power_law(x, noisy, seed=2)
        predictions = (
            result.params[0] * x ** result.params[1] + result.params[2]
        )
        assert np.abs(predictions / clean - 1.0).max() < 0.1

    def test_exponent_bounded(self):
        x = np.array([2.0, 4.0, 8.0, 16.0])
        y = np.array([1.0, 1.0, 1.0, 1.0])
        result = fit_power_law(x, y, seed=3)
        assert 0.0 <= result.params[1] <= 4.0

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError):
            fit_power_law(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_nonpositive_x_rejected(self):
        with pytest.raises(FitError):
            fit_power_law(
                np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
            )

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(FitError):
            fit_power_law(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))


@given(
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.3, max_value=2.0),
    st.floats(min_value=0.0, max_value=1000.0),
)
@settings(max_examples=25, deadline=None)
def test_power_law_property_fit_quality(a, b, c):
    """For clean data the fit reproduces the curve to within 1%."""
    x = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    y = a * x**b + c
    result = fit_power_law(x, y, seed=7)
    predicted = result.params[0] * x ** result.params[1] + result.params[2]
    scale = np.maximum(np.abs(y), 1e-9)
    assert (np.abs(predicted - y) / scale).max() < 0.01


# ----------------------------------------------------------------------
# Exact oracle: variable projection over the exponent
# ----------------------------------------------------------------------
#: Exponent grid of the profile; a bounded 1-D search refines its best
#: cell.
PROFILE_GRID = np.linspace(0.0, 4.0, 4001)


def profile_costs(x, y, exponents):
    """Least-squares cost of ``a·x^b + c`` at each fixed ``b``, with
    ``a >= 0``: for fixed ``b`` the model is linear in ``(a, c)``, so
    each cost is one 2×2 least-squares problem (a negative ``a`` is
    clamped to 0, whose best ``c`` is the mean)."""
    exponents = np.atleast_1d(np.asarray(exponents, dtype=np.float64))
    u = x[None, :] ** exponents[:, None]
    u = u / u.max(axis=1, keepdims=True)
    u = u - u.mean(axis=1, keepdims=True)
    centred = y - y.mean()
    suu = (u * u).sum(axis=1)
    a = np.where(suu > 0, u @ centred / np.where(suu > 0, suu, 1.0), 0.0)
    residuals = np.maximum(a, 0.0)[:, None] * u - centred
    return (residuals * residuals).sum(axis=1)


def profile_optimum(x, y):
    """``(cost, b)`` of the global least-squares optimum over
    ``b ∈ [0, 4]``, ``a >= 0``: the profile's best grid cell, refined."""
    from scipy.optimize import minimize_scalar

    costs = profile_costs(x, y, PROFILE_GRID)
    best = int(np.argmin(costs))
    lo = PROFILE_GRID[max(best - 1, 0)]
    hi = PROFILE_GRID[min(best + 1, PROFILE_GRID.size - 1)]
    refined = minimize_scalar(
        lambda b: float(profile_costs(x, y, b)[0]),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    if refined.fun < costs[best]:
        return float(refined.fun), float(refined.x)
    return float(costs[best]), float(PROFILE_GRID[best])


def assert_at_optimum(x, y):
    """LMA's cost is within 0.1 % of the profile optimum (plus the
    oracle's own rounding, 1e-12 of ``Σy²``)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    optimum, _ = profile_optimum(x, y)
    fit = fit_power_law(x, y, seed=7)
    assert fit.cost <= optimum * (1 + 1e-3) + 1e-12 * float(y @ y)


@given(
    points=st.integers(min_value=3, max_value=12),
    a=st.floats(min_value=1e2, max_value=1e7),
    b=st.floats(min_value=0.2, max_value=2.5),
    c=st.floats(min_value=1e3, max_value=1e8),
    noise_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_fit_reaches_the_profile_optimum(points, a, b, c, noise_seed):
    """On probe-shaped data — a ``2^r`` ladder with ±5 % multiplicative
    noise — LMA lands on the global least-squares optimum whenever that
    optimum lies inside the exponent box. The two faces of the box are
    known misses, each pinned below: an infimum at ``b → 0`` that no
    finite fit attains, and an optimum at ``b = 4`` that LMA leaves for
    the flat ``a = 0`` face.
    """
    x = 2.0 ** np.arange(1, points + 1)
    noise = np.random.default_rng(noise_seed).uniform(-0.05, 0.05, points)
    y = (a * x**b + c) * (1.0 + noise)
    _, exponent = profile_optimum(x, y)
    assume(PROFILE_GRID[1] < exponent < PROFILE_GRID[-2])
    assert_at_optimum(x, y)


def test_fit_reaches_the_optimum_across_a_regime_shift():
    """The calibrator's refit sample set after a 1.5× regime shift: the
    probe ladder plus one drift window of shifted peaks."""
    from tests.tuning.test_calibrate import PROBE_LADDER, make_sample

    samples = [make_sample(w) for w in PROBE_LADDER] + [
        make_sample(PROBE_LADDER[2 + i % 4], 1.5) for i in range(8)
    ]
    assert_at_optimum(
        [s.workload for s in samples],
        [s.peak_memory_bytes for s in samples],
    )


@pytest.mark.xfail(
    strict=True,
    reason="the infimum lies at b -> 0 with a -> inf; LMA stops after "
    "200 iterations 1.3 % above it",
)
def test_sub_logarithmic_infimum_is_not_reached():
    """Three probes whose increments shrink (flatter than ``log W``):
    the least-squares infimum over the box is the ``b → 0`` limit, and
    the fit ends above it."""
    x = np.array([4.0, 8.0, 16.0])
    y = np.array([282378.82472514, 341635.84173078, 394843.2046235])
    assert_at_optimum(x, y)


@pytest.mark.xfail(
    strict=True,
    reason="with b clipped at 4 the fit slides to the a = 0 face, where "
    "the exponent has no gradient; it stops 0.7 % above the optimum",
)
def test_optimum_on_the_exponent_bound_is_not_reached():
    """Three probes whose noise outweighs their growth: the optimum is
    ``b = 4`` with a small ``a > 0``, and the fit ends on the constant
    model instead."""
    x = np.array([2.0, 4.0, 8.0])
    y = np.array([1103.8133631853093, 1089.737892278401, 1098.4698569039986])
    assert_at_optimum(x, y)
