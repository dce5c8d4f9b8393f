import sys
import threading

import numpy as np
import pytest

from qsn import allocation as al, bounds, experiment as ex, functions as fns, protocol as pr
from qsn.measurement import RngStream, count_variances, largest_remainder


def mse_and_se(estimates, truth):
    err2 = (np.asarray(estimates) - truth) ** 2
    mse = float(err2.mean())
    se = float(np.sqrt(max(err2.var(), 0.0) / err2.size))
    return mse, se


def baseline(fn, theta, budget, rng, trials, pilot_fraction=None):
    """The separable baseline's runner under the split ``estimate_mse`` gives it."""
    split = pr.separable_split(fn, theta, budget, pilot_fraction)
    return pr.run_unentangled_batch(fn, theta, split, rng, trials)


def test_resource_budget_validation():
    b = pr.ResourceBudget("qubit-time", 100.0)
    assert b.amount == 100.0
    pr.ResourceBudget("photon-number", 50)
    with pytest.raises(ValueError):
        pr.ResourceBudget("time", 1.0)
    with pytest.raises(ValueError):
        pr.ResourceBudget("qubit-time", 0.0)
    with pytest.raises(ValueError):
        pr.ResourceBudget("qubit-time", np.inf)
    with pytest.raises(ValueError):
        pr.ResourceBudget("photon-number", 10.5)


def test_build_plan_policies():
    model = bounds.point_model(fns.product(2), [1.0, 1.0])
    t = pr.ResourceBudget("qubit-time", 1e4)
    assert pr.build_plan(model, t).policy == "optimal"
    assert pr.build_plan(model, t, "numeric").policy == "numeric"
    assert pr.build_plan(model, t, "power:1.0,0.7").t1 == pytest.approx(10**2.8)
    assert pr.build_plan(model, t, "fixed:250").t1 == 250.0
    with pytest.raises(ValueError):
        pr.build_plan(model, t, "adaptive")

    n = pr.ResourceBudget("photon-number", 1000)
    assert pr.build_plan(model, n).n1 == 96
    assert pr.build_plan(model, n, "fixed:10").n1 == 10
    with pytest.raises(ValueError):
        pr.build_plan(model, n, "numeric")


def test_two_step_linear_unbiased_exact_floor():
    # zero Hessian: f(step1) + grad.(theta - step1) == f(theta) identically,
    # so the only error is the step-2 noise at its 16/t2^2 floor
    f = fns.linear([3.0, 4.0])
    theta = [0.7, -0.4]
    plan = al.optimal_time_split(bounds.point_model(f, theta), 100.0)
    assert plan.t1 == 0.0
    est = pr.run_two_step_batch(f, theta, plan, RngStream(7, 0), 200000)
    mse, se = mse_and_se(est, f.value(theta))
    assert abs(mse - 16.0 / 100.0**2) < 4 * se
    truth = f.value(theta)
    assert abs(est.mean() - truth) < 4 * np.sqrt(mse / est.size)

    # unbiasedness holds for any split, not only the optimal one
    plan = al.fixed_time_split(100.0, 30.0)
    est = pr.run_two_step_batch(f, theta, plan, RngStream(7, 1), 200000)
    assert abs(est.mean() - truth) < 4 * np.sqrt(est.var() / est.size)


def test_two_step_product_matches_prediction_off_tie():
    # distinct gradient components keep the fixed-index expansion exact
    f = fns.product(2)
    theta = [1.0, 0.7]
    coeffs = bounds.point_model(f, theta)
    plan = al.optimal_time_split(coeffs, 1e3)
    est = pr.run_two_step_batch(f, theta, plan, RngStream(7, 2), 200000)
    mse, se = mse_and_se(est, f.value(theta))
    assert abs(mse - coeffs.mse_at(plan.t1, plan.t2)) < 3 * se


def test_two_step_tied_gradient_exceeds_fixed_index_prediction():
    # at exactly tied |gradient| components the expectation of the running
    # max exceeds the fixed-index expansion by an order-s term, so the
    # empirical MSE sits systematically above mse_at
    f = fns.product(2)
    theta = [1.0, 1.0]
    coeffs = bounds.point_model(f, theta)
    plan = al.optimal_time_split(coeffs, 1e3)
    est = pr.run_two_step_batch(f, theta, plan, RngStream(7, 3), 10**6)
    mse, se = mse_and_se(est, f.value(theta))
    z = (mse - coeffs.mse_at(plan.t1, plan.t2)) / se
    assert z > 5.0


def test_two_step_mse_scaling_toward_entangled_floor():
    # MSE * t^2 decreases with the budget toward g2 = max_j grad_j^2
    f = fns.product(2)
    theta = [1.0, 0.7]
    ratios = []
    for i, t in enumerate((1e3, 1e4, 1e5)):
        plan = al.optimal_time_split(bounds.point_model(f, theta), t)
        est = pr.run_two_step_batch(f, theta, plan, RngStream(11, i), 100000)
        mse, _ = mse_and_se(est, f.value(theta))
        ratios.append(mse * t * t)
    assert ratios[0] > ratios[1] > ratios[2]
    assert 1.0 < ratios[2] < 1.05
    np.testing.assert_allclose(
        ratios, [1.1988494, 1.0747451, 1.0291202], rtol=0.02
    )


def test_degenerate_gradient_skips_step2():
    # a step-1-free plan pins every trial at the zero prior, where this
    # gradient sits below TINY_GRADIENT_RTOL: the correction and its noise
    # must be skipped, leaving exactly the prior value 0. Applied, they
    # would give w . theta = 5e-15 plus noise
    f = fns.linear([1e-14, 0.0])
    plan = al.fixed_time_split(100.0, 0.0)
    est = pr.run_two_step_batch(f, [0.5, 0.0], plan, RngStream(13), 1000)
    assert np.all(est == 0.0)

    # with real step-1 noise the gradient of |theta|^2 is almost surely
    # live: each corrected estimate is -|theta1|^2 plus noise, where a
    # skipped correction would leave +|theta1|^2
    f = fns.quadratic(np.eye(2))
    plan = al.fixed_time_split(100.0, 30.0)
    est = pr.run_two_step_batch(f, [0.0, 0.0], plan, RngStream(13, 1), 1000)
    assert np.all(np.isfinite(est))
    assert est.mean() < 0.0


def test_near_critical_gradient_keeps_its_correction():
    # |w| = 1e-9 sits three decades above TINY_GRADIENT_RTOL: every trial
    # of this step-1-free plan starts at the prior 0 and must still be
    # corrected to w . theta = 1e-9, step-2 noise SD 1e-11. A threshold
    # of 1e-6 would skip the correction and read 0
    f = fns.linear([1e-9, 0.0])
    plan = al.fixed_time_split(100.0, 0.0)
    est = pr.run_two_step_batch(f, (1.0, 1.0), plan, RngStream(3), 2000)
    assert abs(est.mean() - 1e-9) < 1e-11


def test_constant_function_never_produces_nan():
    f = fns.from_rules(2, "const", lambda th: np.full(len(th), 3.0), None, None,
                       grad_batch_rule=np.zeros_like)
    plan = al.fixed_time_split(100.0, 30.0)
    est = pr.run_two_step_batch(f, [0.2, -0.1], plan, RngStream(17), 500)
    np.testing.assert_allclose(est, 3.0, atol=1e-7)


def half_square_norm(alias: bool):
    # |x|^2 / 2, whose gradient is its input: the aliasing twin hands back
    # the very block it was given
    return fns.from_rules(
        2, "half-square-norm",
        value_rule=lambda p: 0.5 * np.sum(np.square(p), axis=-1),
        grad_rule=lambda p: np.array(p, float),
        hess_rule=lambda p: np.eye(2),
        grad_batch_rule=(lambda p: p) if alias else (lambda p: p.copy()))


def first_coordinate(alias: bool):
    # x_0, whose value is a column of its input: the aliasing twin returns
    # that column as a view, and a read-only broadcast as its gradient
    e0 = np.array([1.0, 0.0])
    return fns.from_rules(
        2, "first-coordinate",
        value_rule=(lambda p: p[..., 0]) if alias else (lambda p: p[..., 0].copy()),
        grad_rule=lambda p: e0.copy(),
        hess_rule=lambda p: np.zeros((2, 2)),
        grad_batch_rule=(lambda p: np.broadcast_to(e0, p.shape)) if alias
        else (lambda p: np.tile(e0, (p.shape[0], 1))))


@pytest.mark.parametrize("target", [half_square_norm, first_coordinate])
@pytest.mark.parametrize("budget", [pr.ResourceBudget("qubit-time", 1e3),
                                    pr.ResourceBudget("photon-number", 2000)])
@pytest.mark.parametrize("protocol", ["two-step", "unentangled"])
def test_rules_that_return_their_input_give_the_bits_of_copying_rules(
        target, budget, protocol):
    # the chunk reuses its own step-1 buffer once the rules have read it;
    # it must never write into an array a rule returned
    theta = (0.6, 0.9)
    copying, aliasing = (
        ex.estimate_mse(ex.ExperimentConfig(target(alias), theta, budget,
                                            protocol=protocol),
                        ex.CHUNK + 100, master_seed=31, threads=2)
        for alias in (False, True))
    assert repr(aliasing) == repr(copying)
    assert copying.mse > 0.0


def test_batch_matches_scalar_draw_for_draw():
    # a batch of one replays the documented draw order, recomputed here for
    # one trial: d step-1 normals, then one step-2 normal
    f = fns.product(2)
    theta = np.array([1.0, 0.7])
    model = bounds.point_model(f, theta)
    for i, plan in enumerate((al.optimal_time_split(model, 1e3),
                              al.optimal_photon_split(model, 500))):
        gen = RngStream(23, 5 + i).generator()
        if plan.kind == "qubit-time":
            sd, step2 = np.full(2, 1.0 / plan.t1), plan.t2
        else:
            sd, step2 = 1.0 / np.asarray(plan.mode_counts, float), plan.n2
        theta1 = theta + sd * gen.standard_normal(2)
        w = f.gradient(theta1)
        norm = np.max if plan.kind == "qubit-time" else np.sum
        single = (f.value(theta1) + w @ (theta - theta1)
                  + norm(np.abs(w)) / step2 * gen.standard_normal())
        batch = pr.run_two_step_batch(f, theta, plan, RngStream(23, 5 + i), 1)
        assert batch[0] == pytest.approx(single, rel=1e-12)

    # the baseline: n_i ~ |f_i|^{2/3}, then d normals
    budget = pr.ResourceBudget("photon-number", 500)
    counts = largest_remainder(np.abs(f.gradient(theta)) ** (2.0 / 3.0), 500)
    gen = RngStream(23, 7).generator()
    single = f.value(theta + gen.standard_normal(2) / counts)
    ub = baseline(f, theta, budget, RngStream(23, 7), 1)
    assert ub[0] == pytest.approx(single, rel=1e-12)


def test_photon_two_step_mse_approaches_one_norm():
    f = fns.product(2)
    theta = [1.0, 1.0]
    target = float(np.sum(np.abs(f.gradient(theta)))) ** 2  # = 4
    scaled = []
    for i, n in enumerate((100, 1000, 10000)):
        model = bounds.point_model(f, theta)
        plan = al.optimal_photon_split(model, n)
        pred = al.predicted_mse(model, plan)
        scaled.append(pred * n * n)
        if n == 1000:
            est = pr.run_two_step_batch(f, theta, plan, RngStream(29, i), 200000)
            mse, se = mse_and_se(est, f.value(theta))
            assert abs(mse - pred) < 4 * se
    np.testing.assert_allclose(scaled, [7.4075, 5.0837, 4.3997], rtol=1e-3)
    assert scaled[0] > scaled[1] > scaled[2] > target


def test_zero_count_mode_with_live_gradient_rejected():
    f = fns.product(2)
    plan = al.AllocationPlan(kind="photon-number", policy="fixed:5", total=10.0,
                             n1=5, n2=5, mode_counts=(5, 0))
    with pytest.raises(ValueError, match="parameter 1"):
        pr.run_two_step_batch(f, [1.0, 1.0], plan, RngStream(31), 10)


def test_unentangled_time_baseline():
    f = fns.linear([3.0, 4.0])
    theta = [0.2, 0.9]
    budget = pr.ResourceBudget("qubit-time", 10.0)
    est = baseline(f, theta, budget, RngStream(37), 200000)
    mse, se = mse_and_se(est, f.value(theta))
    assert abs(mse - 0.25) < 4 * se
    assert abs(est.mean() - f.value(theta)) < 4 * np.sqrt(mse / est.size)


def test_unentangled_photon_two_thirds_rule():
    f = fns.linear([1.0, 8.0])
    theta = [0.3, -0.2]
    budget = pr.ResourceBudget("photon-number", 100)
    est = baseline(f, theta, budget, RngStream(41), 200000)
    mse, se = mse_and_se(est, f.value(theta))
    # counts (20, 80) from the 2/3-power weights: MSE = 1/400 + 64/6400
    assert abs(mse - 0.0125) < 4 * se


def test_unentangled_ignores_parameters_off_gradient():
    # f = theta_0^2 - 18 theta_0 + 5 theta_1 is flat in theta_0 at 9 but
    # not constant in it, so the estimates show where theta_0 was put
    f = fns.quadratic([[1.0, 0.0], [0.0, 0.0]], offset=[-18.0, 5.0])
    budget = pr.ResourceBudget("photon-number", 50)
    est = baseline(f, [9.0, 0.4], budget, RngStream(43), 100)
    # no photons are wasted on the first parameter; it rests at the prior,
    # and all 50 go to the second
    normals = RngStream(43).generator().standard_normal((100, 2))
    theta1 = normals[:, 1] * np.sqrt(1.0 / 50**2) + 0.4
    pinned = np.column_stack([np.zeros(100), theta1])
    assert np.array_equal(est, f.values(pinned))
    assert abs(est.mean() - f.value([9.0, 0.4])) > 80.0

    with pytest.raises(ValueError, match="zero gradient"):
        baseline(fns.quadratic(np.eye(2)), [0.0, 0.0],
                                 budget, RngStream(43, 1), 10)


def test_unentangled_pilot_stage():
    f = fns.linear([1.0, 8.0])
    theta = [0.3, -0.2]
    budget = pr.ResourceBudget("photon-number", 100)
    est = baseline(f, theta, budget, RngStream(47), 2000,
                                   pilot_fraction=0.2)
    mse, _ = mse_and_se(est, f.value(theta))
    # the pilot spends budget to learn the weights, so it cannot beat the
    # clairvoyant allocation, but it stays within a small factor
    assert 0.0125 * 0.9 < mse < 0.0125 * 4.0

    with pytest.raises(ValueError):
        baseline(f, theta, budget, RngStream(47, 1), 10,
                                 pilot_fraction=1.2)
    with pytest.raises(ValueError, match="full span"):
        baseline(f, theta, pr.ResourceBudget("qubit-time", 10.0),
                                 RngStream(47, 2), 10, pilot_fraction=0.2)


def test_pilot_stage_takes_the_rounded_share_of_photons():
    # round(0.1 * 1007) = 101 pilot photons spread evenly, 906 left; a
    # floored share less one would leave 908
    split = pr.separable_split(fns.product(4), (0.8, 1.0, 1.3, 1.6),
                               pr.ResourceBudget("photon-number", 1007), 0.1)
    assert split.final_photons == 906
    want = count_variances(largest_remainder(np.ones(4), 101))
    assert np.array_equal(split.variances, want)


@pytest.mark.parametrize("fn, theta, photons, pilot", [
    (fns.product(4), (0.8, 1.0, 1.3, 1.6), 100000, 0.1),
    (fns.linear([1.0, 8.0]), (0.3, -0.2), 100, 0.2),
    (fns.product(16), tuple(np.linspace(0.7, 1.45, 16)), 5000, 0.1),
])
def test_pilot_batch_matches_scalar_loop_draw_for_draw(fn, theta, photons, pilot):
    # the (trials, 2, d) block replays, trial by trial, d pilot normals and
    # then d estimate normals, so a loop of single-trial calls on one
    # generator must agree with one call in every bit
    budget = pr.ResourceBudget("photon-number", photons)
    batch = baseline(fn, theta, budget, RngStream(53, 1), 300,
                                     pilot_fraction=pilot)
    gen = RngStream(53, 1).generator()
    loop = np.concatenate([
        baseline(fn, theta, budget, gen, 1, pilot)
        for _ in range(300)])
    assert batch.tobytes() == loop.tobytes()


def _pilot_target(value_rule, grad_rule):
    # rules written for (2,) and (n, 2) input alike
    return fns.from_rules(2, "pilot-target", value_rule, grad_rule,
                          lambda th: np.zeros((2, 2)), grad_batch_rule=grad_rule)


def test_pilot_batch_rejects_bad_rows_without_nan():
    # theta_0 sits on the switch, so some pilot rows land on either side
    budget = pr.ResourceBudget("photon-number", 400)
    theta = (0.5, 0.5)
    total = lambda th: th.sum(axis=-1)
    switch = lambda th, on, off: np.where(th[..., :1] >= 0.5, on, off) * np.ones(2)
    flat = _pilot_target(total, lambda th: switch(th, 1.0, 0.0))
    with pytest.raises(ValueError, match="zero gradient"):
        baseline(flat, theta, budget, RngStream(59), 200, 0.2)
    gen = RngStream(59).generator()
    with pytest.raises(ValueError, match="zero gradient"):
        for _ in range(200):
            baseline(flat, theta, budget, gen, 1, 0.2)

    pole = _pilot_target(total, lambda th: switch(th, np.inf, 1.0))
    with pytest.raises(fns.EvaluationError):
        baseline(pole, theta, budget, RngStream(59), 200, 0.2)

    blowup = _pilot_target(
        lambda th: np.where(th[..., 0] >= 0.5, np.inf, total(th)),
        lambda th: np.ones_like(th))
    for pilot in (0.2, None):
        with pytest.raises(fns.EvaluationError):
            baseline(blowup, theta, budget, RngStream(59), 200,
                                     pilot)


def test_pilot_estimate_mse_thread_invariant_and_pinned():
    # two chunks; the pins are the values of the per-trial loop this batch
    # path replaced, so the pilot output bits are unchanged
    cfg = ex.ExperimentConfig(fns.product(4), (0.8, 1.0, 1.3, 1.6),
                              pr.ResourceBudget("photon-number", 100000),
                              protocol="unentangled", pilot_fraction=0.1)
    one = ex.estimate_mse(cfg, ex.CHUNK + 1, 2024, threads=1)
    two = ex.estimate_mse(cfg, ex.CHUNK + 1, 2024, threads=2)
    assert one == two
    assert (one.mse, one.se, one.bias) == (
        1.7703669112845615e-08, 2.8054022113395563e-10, -5.063638821779117e-07)


def test_pilot_results_never_alias_the_workspace():
    budget = pr.ResourceBudget("photon-number", 5000)
    theta = (0.8, 1.3)
    first = baseline(fns.product(2), theta, budget, RngStream(3), 500, 0.1)
    kept = first.copy()
    baseline(fns.product(2), theta, budget, RngStream(4), 700, 0.1)
    assert first.tobytes() == kept.tobytes()
    # rules handing back views of their input read the workspace itself;
    # f = theta_0 with the gradient theta starves neither pilot row nor mode
    views = fns.from_rules(2, "views", lambda p: p[:, 0], None, None,
                           grad_batch_rule=lambda p: p)
    copies = fns.from_rules(2, "copies", lambda p: p[:, 0].copy(), None, None,
                            grad_batch_rule=lambda p: p.copy())
    got = baseline(views, theta, budget, RngStream(5), 500, 0.1)
    kept = got.copy()
    baseline(views, theta, budget, RngStream(6), 500, 0.1)
    assert got.tobytes() == kept.tobytes()
    assert not any(np.may_share_memory(got, buf)
                   for buf in pr._PILOT_SPACE.buffers.values())
    want = baseline(copies, theta, budget, RngStream(5), 500, 0.1)
    assert got.tobytes() == want.tobytes()


def test_pilot_estimate_mse_is_bit_equal_on_reused_and_fresh_buffers():
    # three chunks; the reference runs them at threads=1 on a brand-new
    # thread, so on a fresh workspace (chunk workers outlive a call, so at
    # threads=2 they may reuse theirs); the checks run them on this thread
    # after calls at other shapes
    cfg = ex.ExperimentConfig(fns.product(3), (0.8, 1.1, 1.4),
                              pr.ResourceBudget("photon-number", 20000),
                              protocol="unentangled", pilot_fraction=0.1)
    trials = 2 * ex.CHUNK + 5
    got = []
    caller = threading.Thread(
        target=lambda: got.append(ex.estimate_mse(cfg, trials, 71, threads=1)),
        daemon=True)
    caller.start()
    caller.join(60)
    assert not caller.is_alive() and len(got) == 1
    fresh = got[0]
    for d, n in ((5, ex.CHUNK), (2, 150)):
        other = ex.ExperimentConfig(fns.product(d), (0.9,) * d,
                                    pr.ResourceBudget("photon-number", 20000),
                                    protocol="unentangled", pilot_fraction=0.1)
        ex.estimate_mse(other, n, 72, threads=1)
        assert repr(ex.estimate_mse(cfg, trials, 71, threads=1)) == repr(fresh)


def test_pilot_workspace_is_per_thread_under_contention():
    # more workers than cores and a short switch interval: chunks sharing
    # one set of buffers would overwrite each other's draws and counts
    cfg = ex.ExperimentConfig(fns.product(3), (0.8, 1.1, 1.4),
                              pr.ResourceBudget("photon-number", 20000),
                              protocol="unentangled", pilot_fraction=0.1)
    trials = 5 * ex.CHUNK + 3
    want = ex.estimate_mse(cfg, trials, 73, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = ex.estimate_mse(cfg, trials, 73, threads=6)
    finally:
        sys.setswitchinterval(interval)
    assert repr(got) == repr(want)


def test_label_permutation_invariance():
    a = np.array([[1.0, 0.2], [0.2, 2.0]])
    b = np.array([0.5, -1.0])
    theta = np.array([0.3, -0.4])
    perm = np.array([1, 0])
    f = fns.quadratic(a, b)
    f_perm = fns.quadratic(a[np.ix_(perm, perm)], b[perm])
    trials = 200000
    stats = []
    for fn, th, idx in ((f, theta, 0), (f_perm, theta[perm], 1)):
        plan = al.optimal_time_split(bounds.point_model(fn, th), 1e3)
        est = pr.run_two_step_batch(fn, th, plan, RngStream(53, idx), trials)
        mse, se = mse_and_se(est, fn.value(th))
        stats.append((est.mean(), mse, se, np.sqrt(est.var() / trials)))
    (m_a, mse_a, se_a, sem_a), (m_b, mse_b, se_b, sem_b) = stats
    assert abs(m_a - m_b) < 4 * np.hypot(sem_a, sem_b)
    assert abs(mse_a - mse_b) < 4 * np.hypot(se_a, se_b)
    # the optimal plans themselves agree, because every coefficient entering
    # them is permutation invariant
    plan_a = al.optimal_time_split(bounds.point_model(f, theta), 1e3)
    plan_b = al.optimal_time_split(bounds.point_model(f_perm, theta[perm]), 1e3)
    assert plan_a.t1 == pytest.approx(plan_b.t1, rel=1e-12)
