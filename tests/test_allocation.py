import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize

from qsn import allocation as al, bounds, functions as fns, oracles
from qsn.measurement import ResourceBudget, RngStream
from qsn.protocol import run_two_step_batch


def random_quadratic(rng, d):
    a = rng.uniform(-1.0, 1.0, size=(d, d))
    while True:
        b = rng.uniform(-2.0, 2.0, size=d)
        f = fns.quadratic(a, b)
        theta = rng.uniform(-1.0, 1.0, size=d)
        if np.max(np.abs(f.gradient(theta))) > 0.5:
            return f, theta


def test_golden_section_min():
    x, v = al.golden_section_min(lambda x: (x - 2.0) ** 2 + 1.0, 0.0, 10.0)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert v == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        al.golden_section_min(lambda x: x, 3.0, 1.0)


def test_plan_budget_invariants():
    plan = al.fixed_time_split(100.0, 12.5)
    assert plan.t1 + plan.t2 == pytest.approx(100.0)
    assert plan.policy == "fixed:12.5"

    plan = al.fixed_photon_split(
        bounds.point_model(fns.product(2), [1.0, 1.0]), 100, 10)
    assert plan.n1 + plan.n2 == 100
    assert sum(plan.mode_counts) == plan.n1


def test_plans_must_split_their_budget_exactly():
    # t2 is the total less t1 to the bit, as every split builds it
    al.AllocationPlan(ResourceBudget("qubit-time", 1e4), policy="fixed",
                      t1=100.0)
    # a photon plan runs a step 1, so it carries step-1 counts, all positive
    with pytest.raises(ValueError, match="n1 > 0"):
        al.AllocationPlan(ResourceBudget("photon-number", 10), policy="fixed")
    with pytest.raises(ValueError, match="positive"):
        al.AllocationPlan(ResourceBudget("photon-number", 10), policy="fixed",
                          mode_counts=(6, -1))


def test_a_plan_holds_only_its_choice():
    # the step-2 share is the budget less the step-1 choice, so a plan
    # cannot disagree with its budget; the other kind's amounts read 0
    fields = [f.name for f in dataclasses.fields(al.AllocationPlan)]
    assert fields == ["budget", "policy", "t1", "mode_counts"]
    plan = al.AllocationPlan(ResourceBudget("qubit-time", 1e4), "fixed:100.0",
                             t1=100.0)
    assert (plan.t1, plan.t2, plan.n1, plan.n2) == (100.0, 9900.0, 0, 0)
    assert type(plan.t2) is float and type(plan.n2) is int
    plan = al.AllocationPlan(ResourceBudget("photon-number", 10), "fixed:4",
                             mode_counts=(3, 1))
    assert (plan.t1, plan.t2, plan.n1, plan.n2) == (0.0, 0.0, 4, 6)
    assert type(plan.t2) is float and type(plan.n2) is int
    # step-1 counts that take the whole budget leave no step 2
    with pytest.raises(ValueError, match="n2 > 0"):
        al.AllocationPlan(ResourceBudget("photon-number", 10), "fixed:10",
                          mode_counts=(6, 4))


def test_closed_form_t1_example():
    # product at (1,1): g1 = g2 = 1, so t1 = 2^{1/5} t^{3/5}
    assert al.closed_form_t1(1.0, 1.0, 1e4) == pytest.approx(288.53998118144267)
    assert al.closed_form_t1(1.0, 1.0, 1e4) == pytest.approx(2.0**0.2 * 10.0**2.4)
    # clamps: never below 1, never above t/2
    assert al.closed_form_t1(1e12, 1.0, 10.0) == pytest.approx(5.0)
    assert al.closed_form_t1(1e-12, 1e6, 100.0) == pytest.approx(1.0)
    with pytest.raises(bounds.DegenerateGradientError):
        al.closed_form_t1(1.0, 0.0, 100.0)


def test_optimal_time_split_examples():
    model = bounds.point_model(fns.product(2), [1.0, 1.0])
    plan = al.optimal_time_split(model, 1e4)
    assert plan.t1 == pytest.approx(288.53998118144267)
    assert plan.t1 + plan.t2 == pytest.approx(1e4)

    # step-1 fraction decreases toward zero with the budget
    fracs = [al.optimal_time_split(model, t).t1 / t for t in (1e3, 1e4, 1e5)]
    np.testing.assert_allclose(fracs, [0.0725, 0.02885, 0.01149], rtol=2e-3)
    assert fracs[0] > fracs[1] > fracs[2]

    # constant gradient: no curvature to correct, skip step 1 entirely
    plan = al.optimal_time_split(
        bounds.point_model(fns.linear([3.0, 4.0]), [0.0, 0.0]), 1e4)
    assert plan.t1 == 0.0 and plan.t2 == pytest.approx(1e4)

    with pytest.raises(bounds.DegenerateGradientError):
        al.optimal_time_split(
            bounds.point_model(fns.quadratic(np.eye(2)), [0.0, 0.0]), 1e4)


def test_flat_point_uses_sqrt_budget():
    # f = x^3/3 + x at 0: gradient 1, curvature 0, third derivative 2,
    # so g1 = 0 but g3 = 2 and step 1 still helps
    f = fns.AnalyticFunction(
        1,
        "x^3/3 + x",
        lambda th: th[..., 0] ** 3 / 3.0 + th[..., 0],
        lambda th: np.array([th[0] ** 2 + 1.0]),
        lambda th: np.array([[2.0 * th[0]]]),
    )
    c = bounds.point_model(f, [0.0])
    assert c.g1 == pytest.approx(0.0, abs=1e-9)
    assert c.g3 == pytest.approx(2.0, rel=1e-6)
    plan = al.optimal_time_split(c, 1e4)
    assert plan.t1 == pytest.approx(100.0)
    # the numeric oracle is free to do better than the sqrt heuristic; it
    # settles on the interior stationary point of g2/t2^2 + g3/(t1 t2)^2
    plan = al.numeric_time_split(c, 1e4)
    assert 1.0 < plan.t1 < 1000.0
    assert c.mse_at(plan.t1, plan.t2) <= c.mse_at(100.0, 1e4 - 100.0)


def test_numeric_oracle_brackets_closed_form():
    f = fns.product(2)
    theta = [1.0, 1.0]
    c = bounds.point_model(f, theta)
    closed = al.optimal_time_split(c, 1e4)
    numeric = al.numeric_time_split(c, 1e4)
    m_closed = c.mse_at(closed.t1, closed.t2)
    m_numeric = c.mse_at(numeric.t1, numeric.t2)
    assert m_numeric <= m_closed <= 1.001 * m_numeric
    # local-minimum certificate at the numeric optimum
    for bump in (0.99, 1.01):
        t1 = numeric.t1 * bump
        assert c.mse_at(t1, 1e4 - t1) >= m_numeric

    plan = al.numeric_time_split(
        bounds.point_model(fns.linear([1.0, 2.0]), [0.0, 0.0]), 1e4)
    assert plan.t1 == 0.0


def test_closed_form_matches_oracle_random_battery():
    # 20 random quadratics, three budgets: closed form within 0.5% of the
    # numeric oracle, and the relative gap shrinks as the budget grows
    rng = np.random.default_rng(53)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        f, theta = random_quadratic(rng, d)
        c = bounds.point_model(f, theta)
        gaps = []
        for t in (1e3, 1e4, 1e5):
            closed = al.optimal_time_split(c, t)
            numeric = al.numeric_time_split(c, t)
            m_c = c.mse_at(closed.t1, closed.t2)
            m_n = c.mse_at(numeric.t1, numeric.t2)
            assert m_n <= m_c * (1 + 1e-12)
            gap = m_c / m_n - 1.0
            assert gap < 5e-3
            gaps.append(gap)
        assert gaps[2] <= gaps[0] + 1e-12


def test_power_law_schedule():
    plan = al.power_law_time_split(1e4, 1.0, 0.7)
    assert plan.t1 == pytest.approx(10.0**2.8)
    assert plan.policy == "power:1.0,0.7"
    for bad in (0.5, 1.0, 0.2):
        with pytest.raises(ValueError):
            al.power_law_time_split(1e4, 1.0, bad)
    with pytest.raises(ValueError):
        al.power_law_time_split(1e4, -1.0, 0.7)


def test_power_law_mse_limit():
    # any exponent in (1/2, 1): MSE * t^2 -> g2 along a geometric budget grid.
    # The excess over the limit decays like t^(p-1), slowest for p near 1.
    f = fns.product(2)
    theta = [1.0, 1.0]
    c = bounds.point_model(f, theta)
    for coeff, power in ((1.0, 0.7), (3.0, 0.55), (0.5, 0.9)):
        ratios = []
        for t in 10.0 ** np.arange(4, 11):
            plan = al.power_law_time_split(t, coeff, power)
            ratios.append(c.mse_at(plan.t1, plan.t2) * t * t / c.g2)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(r > 1.0 for r in ratios)
        assert ratios[-1] - 1.0 < 0.3 * (ratios[0] - 1.0)
    plan = al.power_law_time_split(1e10, 1.0, 0.7)
    assert c.mse_at(plan.t1, plan.t2) * 1e20 / c.g2 == pytest.approx(1.0, rel=1e-2)


def partition(f, theta):
    return al.continuous_pairwise_partition(bounds.point_model(f, theta).coeffs)


def test_pairwise_partition_product_symmetry():
    f, theta = fns.product(2), [1.0, 1.0]
    np.testing.assert_allclose(partition(f, theta), [0.5, 0.5], atol=1e-9)
    model = bounds.point_model(f, theta)
    assert al.fixed_photon_split(model, 20, 10).mode_counts == (5, 5)


def test_pairwise_partition_linear_uniform_fallback():
    f, theta = fns.linear([1.0, 2.0]), [0.0, 0.0]
    model = bounds.point_model(f, theta)
    assert np.all(model.coeffs == 0.0)
    np.testing.assert_array_equal(partition(f, theta), [0.5, 0.5])
    assert al.fixed_photon_split(model, 20, 8).mode_counts == (4, 4)


@pytest.mark.filterwarnings("ignore:Values in x:RuntimeWarning")
def test_pairwise_partition_matches_constrained_oracle():
    # independent route: SLSQP on the same objective and constraint
    rng = np.random.default_rng(61)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        f, theta = random_quadratic(rng, d)
        coeffs = bounds.point_model(f, theta).coeffs
        if coeffs.sum() < 1e-9:
            continue
        w = al.continuous_pairwise_partition(coeffs)

        def objective(w):
            inv = 1.0 / (w * w)
            return float(inv @ coeffs @ inv)

        x0 = np.full(d, 1.0 / d)
        sol = minimize(
            objective, x0, method="SLSQP",
            constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
            bounds=[(1e-6, 1.0)] * d, options={"ftol": 1e-14, "maxiter": 500},
        )
        assert sol.success or sol.status == 8
        assert objective(w) <= objective(sol.x) * (1 + 1e-6)


def test_partition_requires_enough_photons_and_promotes_zeros():
    with pytest.raises(ValueError):
        al.fixed_photon_split(
            bounds.point_model(fns.product(2), [1.0, 1.0]), 100, 1)
    # strongly lopsided curvature: every mode still gets at least one photon
    f = fns.quadratic(np.diag([50.0, 1e-4, 1e-4]))
    model = bounds.point_model(f, [1.0, 1.0, 1.0])
    counts = al.fixed_photon_split(model, 100, 3).mode_counts
    assert counts == (1, 1, 1)


def test_optimal_photon_split_examples():
    model = bounds.point_model(fns.product(2), [1.0, 1.0])
    plan = al.optimal_photon_split(model, 1000)
    assert plan.n1 == 96
    assert plan.n1 + plan.n2 == 1000
    assert sum(plan.mode_counts) == plan.n1

    fracs = [al.optimal_photon_split(model, n).n1 / n
             for n in (10**3, 10**4, 10**5)]
    assert fracs[0] > fracs[1] > fracs[2]

    plan = al.optimal_photon_split(
        bounds.point_model(fns.linear([1.0, 2.0]), [0.0, 0.0]), 100)
    assert plan.n1 == 2 and plan.n2 == 98

    # predicted MSE * N^2 approaches |grad f|_1^2 = 4 from above
    vals = [al.predicted_mse(model, al.optimal_photon_split(model, n)) * n * n
            for n in (10**3, 10**4, 10**5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 4.0 for v in vals)
    assert vals[-1] == pytest.approx(4.0, rel=0.2)

    with pytest.raises(ValueError):
        al.optimal_photon_split(model, 3)


def test_optimal_photon_split_computes_hessian_and_partition_once(monkeypatch):
    base, theta = fns.product(4), [0.8, 1.0, 1.3, 1.6]
    expected = al.optimal_photon_split(bounds.point_model(base, theta), 10**5)
    hessians, partitions = [], []

    def hess_rule(p):
        hessians.append(1)
        return base.hess_rule(p)

    def partition(coeffs):
        partitions.append(1)
        return original(coeffs)

    original = al.continuous_pairwise_partition
    monkeypatch.setattr(al, "continuous_pairwise_partition", partition)
    fn = dataclasses.replace(base, hess_rule=hess_rule)
    assert al.optimal_photon_split(bounds.point_model(fn, theta), 10**5) == expected
    assert (len(hessians), len(partitions)) == (1, 1)


def test_build_plan_policies():
    model = bounds.point_model(fns.product(2), [1.0, 1.0])
    t = ResourceBudget("qubit-time", 1e4)
    assert al.build_plan(model, t).policy == "optimal"
    assert al.build_plan(model, t, "numeric").policy == "numeric"
    assert al.build_plan(model, t, "power:1.0,0.7").t1 == pytest.approx(10**2.8)
    assert al.build_plan(model, t, "fixed:250").t1 == 250.0
    with pytest.raises(ValueError):
        al.build_plan(model, t, "adaptive")

    n = ResourceBudget("photon-number", 1000)
    assert al.build_plan(model, n).n1 == 96
    assert al.build_plan(model, n, "fixed:10").n1 == 10
    with pytest.raises(ValueError):
        al.build_plan(model, n, "numeric")


def test_only_a_zero_t1_time_plan_skips_step1():
    assert al.fixed_time_split(100.0, 0.0).step1_free
    assert not al.fixed_time_split(100.0, 30.0).step1_free
    plan = al.optimal_photon_split(
        bounds.point_model(fns.linear([1.0, 2.0]), [0.0, 0.0]), 100)
    assert not plan.step1_free


def test_a_step1_free_plan_has_no_step1_variances():
    with pytest.raises(ValueError, match="draws no step-1 estimates"):
        al.fixed_time_split(10.0, 0.0).step1_variances(2)


def test_min_weighted_inverse_square_example():
    n, obj = oracles.min_weighted_inverse_square([1.0, 64.0], 100.0)
    np.testing.assert_allclose(n, [20.0, 80.0], rtol=1e-6)
    assert obj == pytest.approx(0.0125, rel=1e-8)
    # analytic optimum: n_i proportional to a_i^{1/3}
    rng = np.random.default_rng(67)
    for _ in range(10):
        a = rng.uniform(0.1, 10.0, size=int(rng.integers(2, 6)))
        total = float(rng.uniform(50.0, 500.0))
        n, obj = oracles.min_weighted_inverse_square(a, total)
        w = a ** (1.0 / 3.0)
        expect = total * w / w.sum()
        np.testing.assert_allclose(n, expect, rtol=1e-5)
        assert obj == pytest.approx(float(np.sum(a / expect**2)), rel=1e-8)


def test_photon_plan_counts_must_match_the_target():
    # the prediction and the runner read a plan's counts through one check
    model = bounds.point_model(fns.product(2), [1.0, 1.0])
    plan = al.AllocationPlan(ResourceBudget("photon-number", 10),
                             policy="fixed:5", mode_counts=(5,))
    with pytest.raises(ValueError, match="plan carries 1 mode counts, need 2"):
        al.predicted_mse(model, plan)
    with pytest.raises(ValueError, match="plan carries 1 mode counts, need 2"):
        run_two_step_batch(fns.product(2), [1.0, 1.0], plan, RngStream(3), 10)


def test_predicted_mse_time_plan():
    f = fns.product(2)
    theta = [1.0, 1.0]
    c = bounds.point_model(f, theta)
    plan = al.optimal_time_split(c, 1e4)
    assert al.predicted_mse(c, plan) == pytest.approx(
        c.mse_at(plan.t1, plan.t2)
    )
    assert al.predicted_mse(c, plan) == pytest.approx(1.0747451e-08, rel=1e-6)
