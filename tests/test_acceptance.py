"""End-to-end acceptance battery.

One test per release criterion, each printing a single PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see all nine lines).
Every Monte Carlo gate runs from master seed 7 and is therefore exactly
reproducible; analytic gates pin their expected values to frozen oracles
before use.
"""

import time

import numpy as np
import pytest

from qsn import allocation as al, bounds, experiment as ex, functions as fns
from qsn import interpolation as ip, measurement as ms, oracles
from qsn.experiment import ExperimentConfig
from qsn.measurement import RngStream
from qsn.protocol import ResourceBudget

MASTER_SEED = 7


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_quadratic(rng, d):
    """Random symmetric quadratic with a usable gradient at a random point."""
    while True:
        a = rng.uniform(-1.0, 1.0, size=(d, d))
        a = 0.5 * (a + a.T)
        b = rng.uniform(-1.5, 1.5, size=d)
        theta = rng.uniform(-1.0, 1.0, size=d)
        fn = fns.quadratic(a, b)
        if np.max(np.abs(fn.gradient(theta))) > 0.5:
            return fn, theta


@pytest.fixture(scope="module")
def saturation_sweep():
    """Shared product-function sweep: criterion 1 gates it, criterion 7
    fits its scaling exponent."""
    cfg = ExperimentConfig(function=fns.product(2), theta=(1.0, 1.0),
                           budget=ResourceBudget("qubit-time", 1e3))
    t0 = time.perf_counter()
    records = ex.sweep_resource(cfg, (1e3, 1e4, 1e5), trials=200000,
                                master_seed=MASTER_SEED)
    return records, time.perf_counter() - t0


def tie_exact_mse(plan):
    """Exact two-step MSE of x1*x2 at (1, 1) for a time plan.

    The step-1 residual is -e1*e2 and the step-2 variance is
    max(1+e1, 1+e2)^2 / t2^2 with e_i ~ N(0, s^2), s = 1/t1; the expectation
    of the squared maximum of two iid Gaussians, 1 + 2s/sqrt(pi) + s^2
    (Clark, Operations Research 9:145, 1961), supplies the order-s term that
    the fixed-index expansion omits at the gradient tie.
    """
    s = 1.0 / plan.t1
    return s**4 + (1.0 + s * s + 2.0 * s / np.sqrt(np.pi)) / plan.t2**2


def test_criterion_1_bound_saturation(saturation_sweep):
    records, elapsed = saturation_sweep
    # frozen closed-form predictions for the product target at (1, 1)
    frozen = (1.1988494e-06, 1.0747451e-08, 1.0291202e-10)
    for rec, pred in zip(records, frozen):
        assert rec.predicted_mse == pytest.approx(pred, rel=1e-6)
    # frozen tie-exact MSE*t^2 (quadrature and 1e6-trial Monte Carlo agree
    # at t = 1e3)
    cfg = ExperimentConfig(function=fns.product(2), theta=(1.0, 1.0),
                           budget=ResourceBudget("qubit-time", 1e3))
    exact = [tie_exact_mse(cfg.with_resource(r.resource).resolved_plan())
             for r in records]
    frozen_exact = (1.2169461, 1.0788916, 1.0301255)
    for rec, ref, pin in zip(records, exact, frozen_exact):
        assert ref * rec.resource**2 == pytest.approx(pin, rel=1e-6)

    zs = [(r.mse - ref) / r.mse_se for r, ref in zip(records, exact)]
    scaled = [r.mse * r.resource**2 for r in records]
    within = all(abs(z) <= 3 for z in zs)
    monotone = (scaled[0] > scaled[1] > scaled[2] > 1.0)
    in_time = elapsed < 120
    report(1, within and monotone and in_time,
           "MSE*t^2 = " + ", ".join(f"{s:.4f}" for s in scaled)
           + "; z vs tie-exact MSE = " + ", ".join(f"{z:+.2f}" for z in zs)
           + f" (gate 3 SE); {elapsed:.0f}s")
    assert monotone, f"MSE*t^2 must fall toward 1.0, got {scaled}"
    assert in_time, f"sweep took {elapsed:.0f}s, budget is 120s"
    for rec, z in zip(records, zs):
        assert abs(z) <= 3, (
            f"t={rec.resource:g}: empirical MSE is {z:+.2f} SE from the "
            f"tie-exact MSE (gate: 3 SE)")


def test_criterion_2_advantage_scales_with_d():
    # frozen finite-budget model ratios unentangled_baseline / predicted_mse
    # at t = 1e4; the d = 8 value checks by hand as
    # 8 / (1/0.9438^2 + 28e8/561.9^4)
    frozen_model = {2: 1.8609064, 4: 3.6079809, 8: 6.9521272}
    t0 = time.perf_counter()
    ratios = {}
    model = {}
    for d in (2, 4, 8):
        fn = fns.product(d)
        theta = tuple([1.0] * d)
        budget = ResourceBudget("qubit-time", 1e4)
        cfg = ExperimentConfig(fn, theta, budget)
        point = bounds.point_model(fn, theta)
        rep = bounds.qubit_bounds(point, budget.amount)
        assert rep.advantage_ratio == pytest.approx(d, rel=1e-12)
        model[d] = rep.unentangled_baseline / al.predicted_mse(
            point, cfg.resolved_plan())
        assert model[d] == pytest.approx(frozen_model[d], rel=1e-6)
        two = ex.estimate_mse(cfg, 200000, MASTER_SEED, stream_index=0)
        un = ex.estimate_mse(
            ExperimentConfig(fn, theta, budget, protocol="unentangled"),
            200000, MASTER_SEED, stream_index=1)
        ratios[d] = un.mse / two.mse
    elapsed = time.perf_counter() - t0
    errs = {d: ratios[d] / model[d] - 1.0 for d in ratios}
    ok = all(abs(e) <= 0.10 for e in errs.values())
    in_time = elapsed < 180
    report(2, ok and in_time,
           "unentangled/two-step MSE ratio vs finite-budget model "
           + ", ".join(f"d={d}: {ratios[d]:.3f} vs {model[d]:.3f} "
                       f"({100 * errs[d]:+.1f}%)" for d in ratios)
           + f" (gate 10%); {elapsed:.0f}s")
    assert in_time, f"took {elapsed:.0f}s, budget is 180s"
    for d, e in errs.items():
        assert abs(e) <= 0.10, (
            f"d={d}: ratio {ratios[d]:.3f} is {100 * e:+.1f}% from the "
            f"finite-budget model ratio {model[d]:.3f} (gate: 10%)")


def test_criterion_3_curvature_term_verification():
    t0 = time.perf_counter()
    worst = 0.0
    unsquared = []
    for fn, theta in ex.fom_battery():
        for sigma in (0.02, 0.05, 0.1):
            rep = ex.verify_general_fom(fn, theta, sigma**2, 10**6,
                                        seed=MASTER_SEED)
            worst = max(worst, abs(rep.z))
            # only where the two forms differ can the data tell them apart
            if rep.predicted_unsquared != rep.predicted:
                unsquared.append((fn.label, sigma, rep.z_unsquared))
    elapsed = time.perf_counter() - t0
    weakest = min(unsquared, key=lambda c: abs(c[2]))
    squared_ok = worst < 4
    typo_ok = abs(weakest[2]) > 10
    in_time = elapsed < 120
    report(3, squared_ok and typo_ok and in_time,
           f"battery worst |z| {worst:.2f} (gate 4); unsquared formula "
           f"smallest |z| {abs(weakest[2]):.1f} over {len(unsquared)} "
           f"discriminating cases (gate >10); {elapsed:.0f}s")
    assert in_time, f"took {elapsed:.0f}s, budget is 120s"
    assert squared_ok, f"battery worst |z| {worst:.2f} breaches 4"
    assert len(unsquared) == 24, (
        f"{len(unsquared)} battery cases separate the two forms, expected 24")
    assert typo_ok, (
        f"the unsquared cross-term formula survives on {weakest[0]} at "
        f"sigma={weakest[1]}: z {weakest[2]:+.2f} (gate |z| > 10)")


# criterion 4's gate on both the relative Fisher-information error and the
# direction error 1 - |cos| of the angle between v and w
GHZ_GATE = 1e-6


def ghz_schedule_errors():
    """Criterion 4's 20 random GHZ time schedules, read by the state-vector
    oracle: the worst direction error, the worst relative error of
    (|v|/|w|)^2 against 1/bound, and the number of schedules in which some
    sensor runs longer than the budget."""
    rng = np.random.default_rng(MASTER_SEED)
    worst_direction = worst_fi = 0.0
    over_budget = 0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        alpha = rng.uniform(-2.0, 2.0, size=d)
        top = np.argmax(np.abs(alpha))
        alpha[top] += np.sign(alpha[top])  # keep max|alpha| well defined
        theta = rng.uniform(-1.0, 1.0, size=d)
        t = float(rng.uniform(1.0, 50.0))
        durations = ms.GHZSpec.for_time(alpha, t).durations
        over_budget += max(durations) > t
        v = oracles.ghz_phase_gradient(durations, np.sign(alpha), theta)
        cos = abs(v @ alpha) / (np.linalg.norm(v) * np.linalg.norm(alpha))
        worst_direction = max(worst_direction, 1.0 - cos)
        # the schedule certifies the entangled bound qsn reports
        reported = bounds.qubit_bounds(
            bounds.point_model(fns.linear(alpha), theta), t).entangled_bound
        fi = float(v @ v / (alpha @ alpha))
        worst_fi = max(worst_fi, abs(fi * reported - 1.0))
    return worst_direction, worst_fi, over_budget


def test_criterion_4_parity_fisher_information():
    direction, fi, over_budget = ghz_schedule_errors()
    ok = direction <= GHZ_GATE and over_budget == 0 and fi <= GHZ_GATE
    report(4, ok, f"20 random GHZ schedules, worst direction error "
                  f"{direction:.2e}, {over_budget} over budget, worst "
                  f"relative FI error {fi:.2e} (gate 1e-6)")
    assert direction <= GHZ_GATE, (
        f"a schedule measures off w . theta: 1 - |cos| {direction:.2e}")
    assert over_budget == 0, f"{over_budget} schedules outrun their budget"
    assert fi <= GHZ_GATE, f"parity Fisher information off by {fi:.2e} relative"


def test_criterion_4_fails_when_every_sensor_runs_the_full_time(monkeypatch):
    # a schedule that runs every sensor for t stays within its budget but
    # measures sum_i sign(w_i) theta_i, not w . theta
    monkeypatch.setattr(ms.GHZSpec, "durations", property(
        lambda spec: (float(spec.budget.amount),) * len(spec.weights)))
    direction, _, over_budget = ghz_schedule_errors()
    assert direction > GHZ_GATE and over_budget == 0


def test_criterion_5_allocation_optimality():
    # frozen closed-form split for the product target at t_total = 1e4
    plan = al.optimal_time_split(
        bounds.point_model(fns.product(2), (1.0, 1.0)), 1e4)
    assert plan.t1 == pytest.approx(288.53998118144267, rel=1e-12)

    rng = np.random.default_rng(MASTER_SEED)
    grid = np.array([1e3, 1e4, 1e5, 1e6])
    worst_gap = 0.0
    worst_slope = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        fn, theta = random_quadratic(rng, d)
        point = bounds.point_model(fn, theta)
        closed = al.predicted_mse(point, al.optimal_time_split(point, 1e4))
        oracle = al.predicted_mse(point, al.numeric_time_split(point, 1e4))
        worst_gap = max(worst_gap, closed / oracle - 1.0)
        t1s = [al.optimal_time_split(point, t).t1 for t in grid]
        slope = np.polyfit(np.log(grid), np.log(t1s), 1)[0]
        worst_slope = max(worst_slope, abs(slope - 0.600))
    gap_ok = worst_gap <= 1e-3
    slope_ok = worst_slope <= 0.005
    report(5, gap_ok and slope_ok,
           f"worst closed-form excess {worst_gap:.2e} over the "
           f"golden-section oracle (gate 1e-3); worst |t1 exponent - 0.600| "
           f"{worst_slope:.1e} (gate 5e-3)")
    assert gap_ok, f"closed-form split {worst_gap:.2e} above oracle minimum"
    assert slope_ok, f"t1 growth exponent off by {worst_slope:.2e}"


def test_criterion_6_photon_norms():
    fn = fns.linear([1.0, 8.0])
    rep = bounds.photon_bounds(bounds.point_model(fn, (0.0, 0.0)), 100)
    counts, objective = oracles.min_weighted_inverse_square(
        np.array([1.0, 64.0]), 100)
    integer_counts = ms.largest_remainder(
        np.abs(fn.gradient((0.0, 0.0))) ** (2.0 / 3.0), 100)

    ent_ok = rep.entangled_bound == pytest.approx(81e-4, rel=1e-12)
    unent_ok = rep.unentangled_baseline == pytest.approx(125e-4, rel=1e-12)
    counts_ok = np.allclose(counts, [20.0, 80.0], atol=1e-6)
    integer_ok = tuple(integer_counts) == (20, 80)
    obj_ok = objective == pytest.approx(0.0125, rel=1e-8)
    ok = ent_ok and unent_ok and counts_ok and integer_ok and obj_ok
    report(6, ok,
           f"gradient (1,8), 100 photons: entangled {rep.entangled_bound}, "
           f"unentangled {rep.unentangled_baseline}, minimizer "
           f"({counts[0]:.6f}, {counts[1]:.6f}) objective {objective}")
    assert ent_ok and unent_ok, "analytic photon bounds moved"
    assert counts_ok and integer_ok, "2/3-power partition moved"
    assert obj_ok, "minimizer objective moved"


def test_criterion_7_heisenberg_scaling(saturation_sweep):
    records, _ = saturation_sweep
    slope, se = ex.fit_scaling_exponent(records)
    ok = -2.05 <= slope <= -1.95
    report(7, ok, f"MSE scaling exponent {slope:.4f} (se {se:.4f}, "
                  "gate [-2.05, -1.95])")
    assert ok, f"fitted exponent {slope:.4f} outside [-2.05, -1.95]"


def test_criterion_8_interpolation_end_to_end():
    layout = ip.SensorLayout((-1.0, 0.3, 1.2), 0.1)
    fn = ip.induced_function(ip.gaussian_beam(), layout, (1.0, 0.0, 1.0))
    readings = ip.forward_readings(ip.gaussian_beam(), (1.0, 0.0, 1.0),
                                   layout)
    # frozen induced gradient at the true readings
    np.testing.assert_allclose(fn.gradient(readings),
                               [0.55713408, 1.21363090, -1.94016966],
                               rtol=1e-7)

    t0 = time.perf_counter()
    rep = ip.run_interpolation(ip.gaussian_beam(), (1.0, 0.0, 1.0), layout,
                               ResourceBudget("qubit-time", 1e4),
                               trials=100000, seed=MASTER_SEED)
    elapsed = time.perf_counter() - t0
    floor = rep.bound_report.entangled_bound
    assert floor == pytest.approx(3.7642583e-8, rel=1e-6)
    analytic_ratio = rep.bound_report.advantage_ratio
    assert analytic_ratio == pytest.approx(1.47374494, rel=1e-6)

    predicted = rep.predicted_two_step
    assert predicted == pytest.approx(4.7099439e-08, rel=1e-6)
    model_ratio = rep.bound_report.unentangled_baseline / predicted

    z = (rep.two_step.mse - predicted) / rep.two_step.se
    ratio_err = rep.advantage / model_ratio - 1.0
    floor_ok = abs(z) <= 3
    ratio_ok = abs(ratio_err) <= 0.10
    in_time = elapsed < 120
    report(8, floor_ok and ratio_ok and in_time,
           f"two-step MSE {z:+.2f} SE from the finite-budget prediction "
           f"(gate 3 SE); advantage {rep.advantage:.4f} vs model "
           f"{model_ratio:.4f} ({100 * ratio_err:+.1f}%, gate 10%; "
           f"asymptotic {analytic_ratio:.4f}); {elapsed:.0f}s")
    assert in_time, f"took {elapsed:.0f}s, budget is 120s"
    assert floor_ok, (
        f"two-step MSE sits {z:+.2f} SE from the finite-budget prediction "
        f"{predicted:.4e} (gate: 3 SE)")
    assert ratio_ok, (
        f"empirical advantage {rep.advantage:.4f} is {100 * ratio_err:+.1f}% "
        f"from the finite-budget model ratio {model_ratio:.4f} (gate: 10%)")


def test_criterion_9_invariant_suites():
    cases = 1000

    # bound orderings on random targets
    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(cases):
        d = int(rng.integers(2, 6))
        kind = rng.integers(0, 3)
        if kind == 0:
            fn, theta = random_quadratic(rng, d)
        elif kind == 1:
            fn, theta = fns.product(d), rng.uniform(0.3, 1.5, size=d)
        else:
            fn = fns.linear(rng.uniform(-2.0, 2.0, size=d))
            theta = rng.uniform(-1.0, 1.0, size=d)
        t = float(rng.uniform(5.0, 1e4))
        point = bounds.point_model(fn, theta)
        rep = bounds.qubit_bounds(point, t)
        if rep.degenerate:
            continue
        assert rep.entangled_bound <= rep.unentangled_baseline * (1 + 1e-12)
        assert 1.0 - 1e-12 <= rep.advantage_ratio <= d + 1e-12
        n = int(rng.integers(10, 10000))
        prep = bounds.photon_bounds(point, n)
        assert prep.conjectured
        assert prep.entangled_bound <= prep.unentangled_baseline * (1 + 1e-12)
        assert 1.0 - 1e-12 <= prep.advantage_ratio <= d + 1e-12
    orderings_ok = True

    # inversion seminorm never beats the direct-readout scale
    rng = np.random.default_rng(MASTER_SEED + 1)
    checked = 0
    for _ in range(cases):
        d = int(rng.integers(2, 6))
        basis = rng.uniform(-2.0, 2.0, size=(d, d))
        if np.linalg.cond(basis) > 1e6:
            continue
        checked += 1
        s = oracles.seminorm_for_basis(basis)
        assert s >= 1.0 / np.max(np.abs(basis[0])) - 1e-9
        grad = rng.uniform(-3.0, 3.0, size=d)
        if np.max(np.abs(grad)) > 1e-6:
            cb = oracles.coordinate_basis(grad)
            assert oracles.seminorm_for_basis(cb) == pytest.approx(
                1.0 / np.max(np.abs(grad)), rel=1e-9)
    assert checked > 900
    seminorm_ok = True

    # moment sanity of the error collector on Gaussian draws
    rng = np.random.default_rng(MASTER_SEED + 2)
    for i in range(cases):
        v = float(rng.uniform(0.1, 4.0))
        n = 1000

        def draw(stream, k, sd=np.sqrt(v)):
            return sd * stream.generator().standard_normal(k)

        m1, m2, m4 = ex.collect_error_moments(draw, n, RngStream(11, i))
        assert m2 >= 0.0
        assert m4 >= m2 * m2  # empirical Jensen, holds exactly
        assert abs(m1) <= 6.0 * np.sqrt(v / n)
    moments_ok = True

    # determinism: equal seeds reproduce bit for bit, substreams differ
    for i in range(cases):
        a = RngStream(i, 3).generator().standard_normal(8)
        b = RngStream(i, 3).generator().standard_normal(8)
        assert np.array_equal(a, b)
        c = RngStream(i, 3).substream(1).generator().standard_normal(8)
        assert not np.array_equal(a, c)
    determinism_ok = True

    # allocation plans conserve the budget
    rng = np.random.default_rng(MASTER_SEED + 3)
    for i in range(cases):
        d = int(rng.integers(2, 5))
        fn, theta = random_quadratic(rng, d)
        t = float(rng.uniform(10.0, 1e5))
        point = bounds.point_model(fn, theta)
        plan = al.optimal_time_split(point, t)
        assert plan.t1 + plan.t2 == pytest.approx(t, abs=1e-9)
        assert 0.0 <= plan.t1 <= t / 2
        if i % 10 == 0:
            n = int(rng.integers(4 * d, 2000))
            pplan = al.optimal_photon_split(point, n)
            assert pplan.n1 + pplan.n2 == n
            assert sum(pplan.mode_counts) == pplan.n1
            assert pplan.n1 >= d
    budget_ok = True

    ok = (orderings_ok and seminorm_ok and moments_ok and determinism_ok
          and budget_ok)
    report(9, ok, f"bound orderings, seminorm floor, moment sanity, "
                  f"determinism, budget conservation: {cases} randomized "
                  "cases each")
    assert ok
