import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presnov.equilibria import SolverConfig
from presnov.errors import ConfigError, NonFiniteValueError, QuadratureError
from presnov.quadrature import QuadratureConfig, integrate_unit
from presnov.radial import ProbeConfig


def test_polynomial_exact():
    value, err = integrate_unit(lambda t: t**3)
    assert value == pytest.approx(0.25, abs=1e-14)
    assert err <= 1e-10


def test_exponential():
    value, err = integrate_unit(np.exp)
    assert value == pytest.approx(math.e - 1.0, rel=1e-13)
    assert abs(value - (math.e - 1.0)) <= max(1e-10, err * 10)


def test_oscillatory_forces_refinement():
    # sin(40 t) needs more than one panel at order 16.
    value, _ = integrate_unit(lambda t: np.sin(40.0 * t))
    assert value == pytest.approx((1.0 - math.cos(40.0)) / 40.0, abs=1e-12)


def test_vector_integrand():
    value, err = integrate_unit(lambda t: np.column_stack((t, t**2, np.cos(t))))
    expected = np.array([0.5, 1.0 / 3.0, math.sin(1.0)])
    assert np.allclose(value, expected, atol=1e-12)
    assert value.shape == (3,) and err.shape == (3,)


def test_select_retires_converged_components():
    # Column 0 has a sharp front at t = 0.6; the smooth columns converge on
    # the first three panels and must not be evaluated again.
    columns = [
        lambda t: np.tanh(40.0 * (t - 0.6)),
        lambda t: t**2,
        np.cos,
        np.exp,
        lambda t: 1.0 / (1.0 + t),
    ]
    evaluated = np.zeros(len(columns), dtype=int)
    live = [np.arange(len(columns))]

    def f(ts):
        evaluated[live[0]] += ts.size
        return np.column_stack([columns[i](ts) for i in live[0]])

    def select(rows):
        live[0] = rows

    value, err = integrate_unit(f, select=select)
    assert evaluated[0] > 48
    assert (evaluated[1:] == 48).all()
    cfg = QuadratureConfig()
    for i, column in enumerate(columns):
        alone, _ = integrate_unit(column)
        assert abs(value[i] - alone) <= max(cfg.abs_tol, cfg.rel_tol * abs(alone))
        assert err[i] <= max(cfg.abs_tol, cfg.rel_tol * abs(value[i]))


def test_without_select_the_integrator_drops_retired_columns():
    # f keeps returning every column; the retired ones must not steer the
    # refinement, so the result is the active-set result.
    def f(t):
        return np.column_stack((np.tanh(40.0 * (t - 0.6)), t**2, np.cos(t)))

    live = [np.arange(3)]

    def f_selected(t):
        return f(t)[:, live[0]]

    def select(rows):
        live[0] = rows

    value, err = integrate_unit(f)
    selected, selected_err = integrate_unit(f_selected, select=select)
    assert live[0].tolist() == [0]
    assert np.allclose(value, selected, rtol=1e-14, atol=1e-15)
    assert np.allclose(err, selected_err, rtol=1e-6, atol=1e-15)
    calls = []

    def shrinking(t):
        calls.append(t.size)
        return f(t)[:, : 3 - min(len(calls) - 1, 1)]

    with pytest.raises(ValueError, match="number of components"):
        integrate_unit(shrinking)


def test_select_that_is_ignored_is_an_error():
    # After select(rows), f must return only the active columns.
    def f(t):
        return np.column_stack((t, np.tanh(40.0 * (t - 0.6))))

    with pytest.raises(ValueError, match="number of components"):
        integrate_unit(f, select=lambda rows: None)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(order=1)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)


@pytest.mark.parametrize(
    "config, name, value",
    [
        (QuadratureConfig, "order", 16.0),
        (QuadratureConfig, "max_subdivisions", 4096.0),
        (ProbeConfig, "radius_count", 3.5),
        (ProbeConfig, "directions", 2.5),
        (SolverConfig, "max_iterations", 10.0),
        (SolverConfig, "multistart", "3"),
    ],
)
def test_integer_settings_reject_non_integers(config, name, value):
    with pytest.raises(ConfigError, match=name):
        config(**{name: value})
    # numpy integers are integers, stored as Python ints.
    stored = getattr(config(**{name: np.int64(3)}), name)
    assert stored == 3 and type(stored) is int


def test_subdivision_budget_exhausted():
    cfg = QuadratureConfig(max_subdivisions=4, abs_tol=1e-14, rel_tol=1e-14)
    with pytest.raises(QuadratureError):
        integrate_unit(lambda t: t**-0.9, cfg)


def test_non_finite_integrand():
    with pytest.raises(NonFiniteValueError):
        integrate_unit(lambda t: np.where(t < 0.5, np.inf, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=8)
)
def test_random_polynomials_match_antiderivative(coeffs):
    coeffs = np.asarray(coeffs)
    powers = np.arange(len(coeffs))

    def f(t):
        return (coeffs * t[:, None] ** powers).sum(axis=1)

    expected = float((coeffs / (powers + 1)).sum())
    value, _ = integrate_unit(f)
    assert value == pytest.approx(expected, abs=1e-12, rel=1e-12)
