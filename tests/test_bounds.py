import numpy as np
import pytest

from qsn import bounds, functions as fns, oracles


def test_qubit_bounds_examples():
    rep = bounds.qubit_bounds(
        bounds.point_model(fns.linear([3.0, 4.0]), [0.0, 0.0]), 10.0)
    assert rep.entangled_bound == pytest.approx(0.16)
    assert rep.unentangled_baseline == pytest.approx(0.25)
    assert rep.advantage_ratio == pytest.approx(1.5625)
    assert rep.resource_kind == "qubit-time"
    assert not rep.conjectured

    rep = bounds.qubit_bounds(
        bounds.point_model(fns.linear(np.ones(4)), np.zeros(4)), 1.0)
    assert rep.entangled_bound == pytest.approx(1.0)
    assert rep.advantage_ratio == pytest.approx(4.0)

    rep = bounds.qubit_bounds(
        bounds.point_model(fns.linear([5.0, 0.0, 0.0]), np.zeros(3)), 1.0)
    assert rep.advantage_ratio == pytest.approx(1.0)


def test_photon_bounds_examples():
    rep = bounds.photon_bounds(
        bounds.point_model(fns.linear([1.0, 8.0]), [0.0, 0.0]), 100)
    assert rep.entangled_bound == pytest.approx(81e-4)
    assert rep.unentangled_baseline == pytest.approx(125e-4)
    assert rep.conjectured

    rep = bounds.photon_bounds(
        bounds.point_model(fns.linear([1.0, 1.0]), [0.0, 0.0]), 10)
    assert rep.entangled_bound == pytest.approx(0.04)
    assert rep.advantage_ratio == pytest.approx(2.0)


def test_two_thirds_norm():
    assert bounds.two_thirds_norm_sq([1.0, 8.0]) == pytest.approx(125.0)
    assert bounds.two_thirds_norm_sq([1.0, 1.0]) == pytest.approx(8.0)
    assert bounds.two_thirds_norm_sq([0.0, 0.0]) == 0.0


def test_bound_ordering_random_gradients():
    # entangled <= unentangled in both settings, ratio within [1, d]
    rng = np.random.default_rng(23)
    for _ in range(1000):
        d = int(rng.integers(1, 11))
        g = rng.normal(size=d) * 10.0 ** rng.integers(-2, 3)
        if np.all(g == 0):
            continue
        model = bounds.point_model(fns.linear(g), np.zeros(d))
        qb = bounds.qubit_bounds(model, 3.0)
        ph = bounds.photon_bounds(model, 50)
        for rep in (qb, ph):
            assert rep.entangled_bound <= rep.unentangled_baseline * (1 + 1e-12)
            assert 1.0 - 1e-12 <= rep.advantage_ratio <= d * (1 + 1e-12)


def test_degenerate_gradient_flagged_not_raised():
    f = fns.quadratic(np.eye(2))
    rep = bounds.qubit_bounds(bounds.point_model(f, [0.0, 0.0]), 5.0)
    assert rep.degenerate
    assert rep.entangled_bound == 0.0
    assert rep.advantage_ratio == 1.0


def test_seminorm_examples():
    assert oracles.seminorm_for_basis([[2.0, 1.0], [0.0, 1.0]]) == pytest.approx(0.5)
    assert oracles.seminorm_for_basis([[2.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0)
    assert oracles.seminorm_for_basis(np.eye(3)) == pytest.approx(1.0)
    with pytest.raises(oracles.SingularBasisError):
        oracles.seminorm_for_basis([[1.0, 1.0], [1.0, 1.0]])


def test_seminorm_inequality_random_bases():
    # any invertible basis gives seminorm >= 1/max_j |J_1j|; the coordinate
    # basis built from the gradient achieves it
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        j = rng.normal(size=(d, d))
        if np.linalg.cond(j) > 1e6:
            continue
        checked += 1
        s = oracles.seminorm_for_basis(j)
        assert s >= 1.0 / np.max(np.abs(j[0])) - 1e-9 * s
    assert checked > 900

    for _ in range(100):
        d = int(rng.integers(1, 7))
        g = rng.normal(size=d)
        basis = oracles.coordinate_basis(g)
        np.testing.assert_allclose(basis[0], g)
        s = oracles.seminorm_for_basis(basis)
        assert s == pytest.approx(1.0 / np.max(np.abs(g)))


def test_coordinate_basis_degenerate():
    with pytest.raises(bounds.DegenerateGradientError):
        oracles.coordinate_basis(
            bounds.point_model(fns.quadratic(np.eye(2)), [0.0, 0.0]).gradient)


def test_hessian_quartic_coeffs_values():
    # h = [[0,1],[1,0]] -> off-diagonal (2*1+0)/4, diagonal 0
    c = bounds.point_model(fns.product(2), [1.0, 1.0]).coeffs
    np.testing.assert_allclose(c, [[0.0, 0.5], [0.5, 0.0]])
    # f = x1^2: c11 = (2*4 + 4)/4 = 3
    c = bounds.point_model(fns.quadratic([[1.0]]), [0.0]).coeffs
    np.testing.assert_allclose(c, [[3.0]])


def curvature_term(f, theta, var) -> float:
    """sum_ij C_ij var_i var_j, the step-1 part of the two-step prediction."""
    var = np.asarray(var, dtype=float)
    return float(var @ bounds.point_model(f, theta).coeffs @ var)


def test_two_step_prediction_examples():
    f = fns.quadratic([[1.0]])
    assert curvature_term(f, [0.0], [0.01]) == pytest.approx(3e-4)
    f2 = fns.linear([2.0, -1.0])
    assert curvature_term(f2, [0.3, 0.4], [0.1, 0.2]) == 0.0
    f3 = fns.product(2)
    s = 0.0025
    assert curvature_term(f3, [1.0, 1.0], [s, s]) == pytest.approx(s * s)
    # zero variances leave only the step-2 floor
    assert curvature_term(f3, [1.0, 1.0], [0.0, 0.0]) == 0.0


def test_two_step_prediction_against_monte_carlo():
    # independent sampling oracle for the quartic-coefficient formula
    rng = np.random.default_rng(101)
    a = np.array([[1.0, -0.75], [-0.75, 2.0]])
    f = fns.quadratic(a, [0.5, -1.0])
    theta = np.array([0.3, -0.2])
    var = np.array([0.04**2, 0.03**2])
    n = 400000
    delta = rng.standard_normal((n, 2)) * np.sqrt(var)
    pts = theta + delta
    resid = f.values(pts) - np.einsum("nd,nd->n", f.gradients(pts), delta) - f.value(theta)
    mc = float(np.mean(resid**2))
    se = float(np.std(resid**2) / np.sqrt(n))
    predicted = curvature_term(f, theta, var)
    assert abs(mc - predicted) < 4 * se


def test_time_mse_coefficients_product():
    c = bounds.point_model(fns.product(2), [1.0, 1.0])
    assert (c.g1, c.g2, c.g3) == (1.0, 1.0, 1.0)
    assert c.argmax_index == 0 and not c.degenerate
    assert c.mse_at(100.0, 900.0) == pytest.approx(1.24469e-6, rel=1e-4)


def test_time_mse_coefficients_linear():
    c = bounds.point_model(fns.linear([3.0, 4.0]), [0.0, 0.0])
    assert c.g1 == 0.0 and c.g3 == 0.0
    assert c.g2 == pytest.approx(16.0)
    assert c.mse_at(0.0, 10.0) == pytest.approx(0.16)


def test_mse_at_requires_step1_time_when_curved():
    c = bounds.point_model(fns.product(2), [1.0, 1.0])
    with pytest.raises(ValueError):
        c.mse_at(0.0, 100.0)
    with pytest.raises(ValueError):
        c.mse_at(-1.0, 100.0)
    with pytest.raises(ValueError):
        c.mse_at(10.0, 0.0)


def test_mse_at_monotone_decreasing():
    c = bounds.point_model(fns.product(2), [1.0, 1.0])
    t1 = np.linspace(5.0, 500.0, 40)
    vals_t1 = [c.mse_at(x, 1000.0) for x in t1]
    assert all(a > b for a, b in zip(vals_t1, vals_t1[1:]))
    t2 = np.linspace(100.0, 5000.0, 40)
    vals_t2 = [c.mse_at(50.0, x) for x in t2]
    assert all(a > b for a, b in zip(vals_t2, vals_t2[1:]))


def test_frozen_time_mse_predictions():
    # optimal-split predictions used by the acceptance gates
    from qsn import allocation

    f = fns.product(2)
    theta = [1.0, 1.0]
    c = bounds.point_model(f, theta)
    expected = {1e3: 1.1988494e-06, 1e4: 1.0747451e-08, 1e5: 1.0291202e-10}
    for t, val in expected.items():
        plan = allocation.optimal_time_split(bounds.point_model(f, theta), t)
        assert c.mse_at(plan.t1, plan.t2) == pytest.approx(val, rel=1e-6)


def test_photon_residual_coefficient():
    coeffs = bounds.point_model(fns.product(2), [1.0, 1.0]).coeffs
    c = bounds.photon_residual_coefficient(coeffs, [0.5, 0.5])
    assert c == pytest.approx(16.0)
    with pytest.raises(ValueError):
        bounds.photon_residual_coefficient(coeffs, [0.7, 0.4])


def test_for_budget_dispatches_on_the_budget_kind():
    from qsn.protocol import ResourceBudget

    f = fns.product(3)
    th = [0.5, -1.2, 2.0]
    model = bounds.point_model(f, th)
    assert bounds.for_budget(model, ResourceBudget("qubit-time", 50.0)) == \
        bounds.qubit_bounds(model, 50.0)
    assert bounds.for_budget(model, ResourceBudget("photon-number", 70)) == \
        bounds.photon_bounds(model, 70)


def test_time_mse_coefficients_evaluates_one_hessian():
    calls = []
    base = fns.product(4)
    f = fns.AnalyticFunction(dim=4, label="counted product",
                             value_rule=base.value_rule, grad_rule=None,
                             hess_rule=lambda th: calls.append(1) or base.hess_rule(th),
                             third_diag_rule=base.third_diag_rule,
                             grad_batch_rule=base.grad_batch_rule)
    th = [0.8, 1.0, 1.3, 1.6]
    c = bounds.point_model(f, th)
    assert len(calls) == 1
    ref = bounds.point_model(base, th)
    assert (c.g1, c.g2, c.g3, c.argmax_index, c.degenerate) == \
        (ref.g1, ref.g2, ref.g3, ref.argmax_index, ref.degenerate)
    for name in ("gradient", "hessian", "third_slice", "coeffs"):
        assert np.array_equal(getattr(c, name), getattr(ref, name)), name


def test_point_model_rejects_overflowing_coefficients():
    base = fns.product(2)
    f = fns.AnalyticFunction(2, "steep", base.value_rule, None,
                             lambda th: np.full((2, 2), 1e200), base.third_diag_rule,
                             base.grad_batch_rule)
    with np.errstate(over="ignore"), pytest.raises(fns.EvaluationError):
        bounds.point_model(f, [1.0, 1.0])


def test_point_model_argmax_index_rules():
    def index_and_flag(weights, theta):
        model = bounds.point_model(fns.linear(weights), theta)
        return model.argmax_index, model.degenerate

    assert index_and_flag([3.0, 4.0], [0.0, 0.0]) == (1, False)
    assert index_and_flag([1.0, 1.0], [0.0, 0.0]) == (0, False)
    assert index_and_flag([0.0, 0.0], [0.0, 0.0]) == (0, True)
    # scaling f by a positive constant must not move the argmax
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = rng.normal(size=4)
        j, flag = index_and_flag(w, np.zeros(4))
        j2, _ = index_and_flag(2.5 * w, np.zeros(4))
        assert j == j2 and not flag
