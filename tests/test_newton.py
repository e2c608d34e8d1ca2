"""Damped Newton: stop reasons and the number of steps it reports."""

import numpy as np

from eqm.errors import InvalidInterval
from eqm.newton import damped_newton


def test_converged_reports_steps_taken():
    # a linear residual with an exact Jacobian is solved by one full step
    res = damped_newton(lambda x: 2.0 * x - 1.0, [3.0], 1e-10, 100,
                        lambda x: [[2.0]])
    assert res.converged
    assert res.message == "converged"
    assert res.iterations == 1


def test_budget_exhausted_reports_budget():
    # x^3 = 0 converges linearly, so three steps are not enough
    res = damped_newton(lambda x: x**3, [1.0], 1e-10, 3, lambda x: [[3.0 * x[0] ** 2]])
    assert not res.converged
    assert res.message == "iteration budget exhausted"
    assert res.iterations == 3


def test_singular_jacobian_reports_no_step():
    # x^2 + 1 has slope 0 at 0
    res = damped_newton(lambda x: x * x + 1.0, [0.0], 1e-10, 100,
                        lambda x: [[2.0 * x[0]]])
    assert not res.converged
    assert res.message == "singular Jacobian"
    assert res.iterations == 0


def test_stalled_line_search_reports_steps_taken():
    # residual x, exact unit Jacobian; every point below 1 is infeasible,
    # so the first step lands on 1 and no step from there is accepted
    def fun(x):
        if x[0] < 1.0:
            raise InvalidInterval("below 1")
        return x.copy()

    res = damped_newton(fun, [2.0], 1e-10, 100, lambda x: [[1.0]])
    assert not res.converged
    assert res.message == "line search stalled"
    assert res.iterations == 1
    np.testing.assert_array_equal(res.x, [1.0])


def test_jacobian_without_a_value_stops_the_solve():
    # a Jacobian that raises a feasibility error, or is not finite, at
    # the iterate stops the solve before any step
    def raising(x):
        raise InvalidInterval("no derivative here")

    for jac in (raising, lambda x: [[np.inf]]):
        res = damped_newton(lambda x: x - 1.0, [3.0], 1e-10, 100, jac)
        assert not res.converged
        assert res.message == "Jacobian unavailable at the current iterate"
        assert res.iterations == 0


def test_final_step_past_tol_is_taken_and_not_counted():
    # x^2 = 2 from 1.5: one step reaches |f| = 6.9e-3 <= tol, 2.5e-3
    # from sqrt(2), and the final full step lands 2.1e-6 from it;
    # iterations counts only the first step
    res = damped_newton(lambda x: x * x - 2.0, [1.5], 1e-2, 100,
                        lambda x: [[2.0 * x[0]]])
    assert res.converged and res.iterations == 1
    assert abs(res.x[0] - np.sqrt(2.0)) < 3e-6
    assert res.residual_norm < 1e-5


def test_final_step_is_dropped_when_it_fails():
    # the residual raises at every point past the converged iterate and
    # the final step would cross into it: the converged iterate stays
    def fun(x):
        if x[0] < 0.9:
            raise InvalidInterval("below 0.9")
        return x - 0.5

    res = damped_newton(fun, [0.95], 0.5, 100, lambda x: [[1.0]])
    assert res.converged and res.iterations == 0
    np.testing.assert_array_equal(res.x, [0.95])
