"""Input guards that the rest of the suite never trips: each case drives one
refusal and checks that it raises its documented error, never returning a
NaN in place of one."""

import re

import numpy as np
import pytest

from qsn import allocation as al, bounds, functions as fns
from qsn import interpolation as ip, measurement as ms, protocol as pr
from qsn.experiment import ExperimentConfig, collect_error_moments
from qsn.functions import EvaluationError, Workspace
from qsn.measurement import ResourceBudget, RngStream

PRODUCT = fns.product(2)
MODEL = bounds.point_model(PRODUCT, (1.0, 1.0))
TIME = ResourceBudget("qubit-time", 1e4)
LAYOUT = ip.SensorLayout((0.0, 1.0, 2.0), 3.0)


def diagonal_ansatz(field, slope):
    """A three-parameter ansatz whose reading i is field(c_i), so Newton
    runs on each coordinate alone."""
    def jacobians(c, x):
        out = np.zeros((len(c), 3, 3))
        out[:, range(3), range(3)] = slope(c)
        return out

    return ip.Ansatz(param_dim=3, label="diagonal", field_rule=None,
                     jacobian_rule=None,
                     field_batch_rule=lambda c, x: field(c),
                     jacobian_batch_rule=jacobians)


def invert(ansatz, readings, start):
    return ip._batch_newton(ansatz, LAYOUT, np.asarray(readings, dtype=float),
                            np.asarray(start, dtype=float), Workspace())


def tiny_third_slope():
    # a linear map whose third reading moves 1e-300 per unit: from c_3 = 1e308
    # the first Newton step is a finite -1e308 and the iterate overflows
    scale = np.array([1.0, 1.0, 1e-300])
    return diagonal_ansatz(lambda c: c * scale,
                           lambda c: np.broadcast_to(scale, c.shape))


def squares():
    # c^2 = -1 has no real root: Newton's iterates wander, finite, for good
    return diagonal_ansatz(lambda c: c * c, lambda c: 2.0 * c)


def infinite_second_component(points):
    return np.stack([points[:, 1], np.full(len(points), np.inf)], axis=1)


CASES = {
    # allocation
    # t1**4 underflows to 0, and the prediction would divide by zero
    "t1 whose fourth power is zero": (
        lambda: al.build_plan(MODEL, TIME, "fixed:1e-100"),
        ValueError, "time plan's t1 = 1e-100 is too small"),
    # t1**4 is subnormal, and the prediction would read inf
    "t1 whose fourth power is subnormal": (
        lambda: al.build_plan(MODEL, TIME, "fixed:8e-78"),
        ValueError, "time plan's t1 = 8e-78 is too small"),
    "time budget of 2": (
        lambda: al.optimal_time_split(MODEL, 2.0),
        ValueError, "t_total must exceed 2"),
    "non-square coefficients": (
        lambda: al.continuous_pairwise_partition(np.ones((2, 3))),
        ValueError, "coefficient matrix must be square and finite"),
    "negative coefficient diagonal": (
        lambda: al.continuous_pairwise_partition([[-1.0, 0.0], [0.0, 1.0]]),
        ValueError, "coefficient matrix needs a nonnegative diagonal"),
    # rows that sum to zero zero every residual at the uniform start
    "residual-free coefficients": (
        lambda: al.continuous_pairwise_partition([[1.0, -1.0], [-1.0, 1.0]]),
        None, None),
    "fixed:t_total": (
        lambda: al.build_plan(MODEL, TIME, "fixed:10000"),
        ValueError, "time plan needs t1 >= 0 and t2 > 0"),
    "fixed:nan": (
        lambda: al.build_plan(MODEL, TIME, "fixed:nan"),
        ValueError, "time plan needs t1 >= 0 and t2 > 0"),
    "power law that puts t1 at t": (
        lambda: al.build_plan(MODEL, TIME, "power:10.0,0.75"),
        ValueError, "time plan needs t1 >= 0 and t2 > 0"),
    "power law past t": (
        lambda: al.build_plan(MODEL, TIME, "power:1e4,0.6"),
        ValueError, "time plan needs t1 >= 0 and t2 > 0"),
    # bounds
    "zero bound time": (
        lambda: bounds.qubit_bounds(MODEL, 0.0),
        ValueError, "amount must be positive and finite"),
    "fractional bound photon count": (
        lambda: bounds.photon_bounds(MODEL, 10.5),
        ValueError, "photon budgets are integers"),
    "wrong number of fractions": (
        lambda: bounds.photon_residual_coefficient(np.eye(2), [1.0]),
        ValueError, "need 2 fractions"),
    # experiment
    "unknown protocol": (
        lambda: ExperimentConfig(PRODUCT, (1.0, 1.0), TIME,
                                 protocol="adaptive"),
        ValueError, "protocol must be one of"),
    "no trials to collect": (
        lambda: collect_error_moments(lambda stream, n: np.zeros(n), 0,
                                      RngStream(0)),
        ValueError, "trials must be positive"),
    # functions
    "non-finite gradient component": (
        lambda: fns.AnalyticFunction(
            2, "inf-slope", lambda p: p[:, 0], None, None,
            grad_batch_rule=infinite_second_component).gradient([1.0, 1.0]),
        EvaluationError, "non-finite gradient component 1 of inf-slope"),
    "third slice index": (
        lambda: PRODUCT.third_diag_slice([1.0, 1.0], 2),
        ValueError, "index 2 out of range for d=2"),
    "batch shape": (
        lambda: PRODUCT.values(np.zeros((4, 3))),
        ValueError, "batch must have shape (n, 2)"),
    "empty product": (
        lambda: fns.product(0),
        ValueError, "product needs dim >= 1"),
    "non-square quadratic": (
        lambda: fns.quadratic([[1.0, 2.0]]),
        ValueError, "matrix must be square"),
    # interpolation
    "field of a zero waist at its center": (
        lambda: ip.gaussian_beam().field((1.0, 0.0, 0.0), [0.0]),
        EvaluationError, "non-finite field value of gaussian-beam"),
    "Newton overflow": (
        lambda: invert(tiny_third_slope(), [[0.0, 0.0, 2e8]],
                       [0.0, 0.0, 1e308]),
        EvaluationError, "sensor-map inversion diverged"),
    "Newton without a root": (
        lambda: invert(squares(), [[-1.0, -1.0, -1.0]], [0.5, 0.7, 1.3]),
        EvaluationError, "sensor-map inversion failed for 1 reading rows"),
    # measurement
    "negative stream index": (
        lambda: RngStream(0, -1),
        ValueError, "stream index must be nonnegative"),
    "seed as rng": (
        lambda: ms.sample_param_estimates([0.0], [1.0], 42, 1),
        TypeError, "rng must be an RngStream or numpy Generator"),
    "variances of another length": (
        lambda: ms.sample_param_estimates([0.0, 0.0], [1.0], RngStream(0), 1),
        ValueError, "variances must match theta in length"),
    "no GHZ weights": (
        lambda: ms.GHZSpec([], ResourceBudget("qubit-time", 1.0)),
        ValueError, "weights must be a finite nonempty vector"),
    "fractional apportionment total": (
        lambda: ms.largest_remainder([1.0, 1.0], 2.5),
        ValueError, "total must be a nonnegative integer"),
    # protocol
    "no two-step trials": (
        lambda: pr.run_two_step_batch(PRODUCT, (1.0, 1.0),
                                      al.build_plan(MODEL, TIME),
                                      RngStream(0), 0),
        ValueError, "trials must be positive"),
    "pilot that spends the budget": (
        lambda: pr.separable_split(fns.product(3), (1.0, 1.0, 1.0),
                                   ResourceBudget("photon-number", 10), 0.99),
        ValueError, "pilot stage consumes the whole budget"),
    "no unentangled trials": (
        lambda: pr.run_unentangled_batch(
            PRODUCT, (1.0, 1.0),
            pr.separable_split(PRODUCT, (1.0, 1.0), TIME), RngStream(0), 0),
        ValueError, "trials must be positive"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES)
def test_guard_refuses_or_returns_finite(call, error, message):
    if error is None:
        assert np.all(np.isfinite(call()))
        return
    with pytest.raises(error, match=re.escape(message)):
        call()
