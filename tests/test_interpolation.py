import dataclasses
import sys
from dataclasses import replace

import numpy as np
import pytest

from qsn import bounds, functions as fns, interpolation as ip
from qsn.experiment import CHUNK, ExperimentConfig, estimate_mse
from qsn.protocol import ResourceBudget

BEAM = ip.gaussian_beam()
LAYOUT = ip.SensorLayout((-1.0, 0.3, 1.2), 0.1)
TRUE = np.array([1.0, 0.0, 1.0])
READINGS = ip.forward_readings(BEAM, TRUE, LAYOUT)

# gradient of the induced reading->field map at the true readings, frozen
# from the exact Jacobian solve
GRAD_G = np.array([0.55713408, 1.21363090, -1.94016966])


def random_layout_cases(seed, count):
    """Well-conditioned random beams: every sensor sees at least 5% of peak."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        locs = np.sort(rng.uniform(-1.5, 1.5, size=3))
        if np.min(np.diff(locs)) < 0.2:
            continue
        true = np.array([rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5),
                         rng.uniform(0.7, 1.5)])
        layout = ip.SensorLayout(tuple(locs), float(rng.uniform(-1.0, 1.0)))
        readings = ip.forward_readings(BEAM, true, layout)
        jac = BEAM.jacobian(true, layout.points())
        if np.linalg.cond(jac) > 1e6 or readings.min() < 0.05 * true[0]:
            continue
        start = true * (1.0 + 0.05 * rng.standard_normal(3))
        cases.append((layout, true, readings, jac, start))
    return cases


def count_inversions(monkeypatch):
    """The row count of every ``_batch_newton`` call, in call order."""
    rows = []
    newton = ip._batch_newton
    monkeypatch.setattr(ip, "_batch_newton", lambda ansatz, layout, readings, *rest:
                        rows.append(len(readings)) or
                        newton(ansatz, layout, readings, *rest))
    return rows


def test_layout_validation():
    with pytest.raises(ValueError, match="distinct"):
        ip.SensorLayout((0.1, 0.1, 0.5), 0.0)
    with pytest.raises(ValueError, match="finite"):
        ip.SensorLayout((0.1, np.inf), 0.0)
    with pytest.raises(ValueError, match="nonempty"):
        ip.SensorLayout((), 0.0)
    lay = ip.SensorLayout((0.3, -1.0), 0.2)
    assert lay.dim == 2
    assert lay.locations == (0.3, -1.0)


def test_beam_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = np.linspace(-1.4, 1.4, 9)
    for _ in range(20):
        c = np.array([rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5),
                      rng.uniform(0.7, 1.5)])
        jac = BEAM.jacobian(c, x)
        fd = np.empty_like(jac)
        for k in range(3):
            h = 1e-6 * max(1.0, abs(c[k]))
            e = np.zeros(3)
            e[k] = h
            fd[:, k] = (BEAM.field(c + e, x) - BEAM.field(c - e, x)) / (2 * h)
        np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-6)


def test_beam_batch_rules_match_row_loops():
    cs = np.array([[1.0, 0.0, 1.0], [0.8, 0.2, 1.3], [1.7, -0.4, 0.9]])
    x = LAYOUT.points()
    np.testing.assert_array_equal(
        BEAM.field_batch(cs, x), np.stack([BEAM.field(c, x) for c in cs]))
    np.testing.assert_array_equal(
        BEAM.jacobian_batch(cs, x), np.stack([BEAM.jacobian(c, x) for c in cs]))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 8191])
def test_beam_batch_rows_keep_their_bits_in_any_block(n):
    # the batch rules run each op over a length-n row of trials, so a row's
    # exp lands in a different SIMD lane, or in the tail, in every block
    # size; each row must still carry the bits it gets on its own
    rng = np.random.default_rng(n)
    cs = np.column_stack([rng.uniform(0.5, 2.0, n), rng.uniform(-0.5, 0.5, n),
                          rng.uniform(0.2, 3.0, n)])
    for x in (rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.5, 1.5, 1)):
        for rule in (BEAM.field_batch_rule, BEAM.jacobian_batch_rule):
            alone = np.concatenate([rule(c[None], x) for c in cs])
            assert np.array_equal(rule(cs, x).view(np.int64),
                                  alone.view(np.int64))


@pytest.mark.parametrize("transposed", [False, True])
def test_solve_rows_bits_do_not_depend_on_layout(transposed):
    # the Newton loop hands the solve location-major views: (n, 3, 3) and
    # (n, 3) transposes of (3, 3, n) and (3, n) blocks
    rng = np.random.default_rng(4)
    n = 37
    jac = (rng.standard_normal((3, 3, n)) + 3.0 * np.eye(3)[:, :, None]).T
    rhs = rng.standard_normal((3, n)).T
    work = np.empty((ip.SOLVE_WORK_ROWS, n))
    want = ip._solve_rows(np.ascontiguousarray(jac), np.ascontiguousarray(rhs),
                          transposed, work=work).view(np.int64)
    for args in ((np.ascontiguousarray(jac), np.ascontiguousarray(rhs)),
                 (jac, rhs)):
        for out in (np.empty((n, 3)), np.empty((3, n)).T):
            got = ip._solve_rows(*args, transposed, work=work, out=out)
            assert got is out
            assert np.array_equal(got.view(np.int64), want)


def test_ansatz_jacobian_shape_guard():
    bad = ip.Ansatz(param_dim=1, label="bad",
                    field_rule=lambda c, x: c[0] * x,
                    jacobian_rule=lambda c, x: x,
                    field_batch_rule=lambda cs, x: cs[:, :1] * x,
                    jacobian_batch_rule=lambda cs, x: np.ones((len(cs), 1)) * x)
    with pytest.raises(ValueError, match="shape"):
        bad.jacobian((2.0,), [0.1, 0.2])


def test_non_finite_anchor_jacobian_is_named():
    # waist 0 makes the Jacobian 0/0; the anchor check names the ansatz
    # instead of handing NaN to the condition number
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(fns.EvaluationError,
                           match="non-finite Jacobian of gaussian-beam"):
            ip.induced_function(BEAM, LAYOUT, (1.0, 0.0, 0.0))


def test_rule_fields_keep_the_names_the_benchmark_tracer_wraps():
    # perfbench/tracer.py replaces these fields by name
    for cls, names in ((fns.AnalyticFunction,
                        ("value_rule", "grad_rule", "grad_batch_rule")),
                       (ip.Ansatz, ("field_rule", "jacobian_rule",
                                    "field_batch_rule", "jacobian_batch_rule"))):
        assert set(names) <= {f.name for f in dataclasses.fields(cls)}


def test_module_names_the_benchmark_patches_are_where_it_looks():
    # perfbench/workloads.py replaces these in their owners' namespaces, and
    # skips (reading 0) a name its owner no longer holds
    from qsn import (allocation, cli, experiment, functions, measurement,
                     protocol)
    for owner, names in (
            (experiment, ("collect_error_moments", "run_two_step_batch",
                          "run_unentangled_batch", "build_plan")),
            (protocol, ("sample_param_estimates",)),
            (measurement.RngStream, ("generator",)),
            (allocation, ("predicted_mse", "continuous_pairwise_partition")),
            (ip, ("predicted_mse", "induced_function", "_batch_newton",
                  "estimate_mse")),
            (bounds, ("photon_residual_coefficient", "qubit_bounds",
                      "photon_bounds")),
            (cli, ("sweep_resource", "run_command")),
            (functions, ("product",))):
        for name in names:
            assert name in owner.__dict__, (owner.__name__, name)


def test_calls_go_through_the_names_the_benchmark_patches(monkeypatch):
    calls = []

    def counting(name, original):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapped

    for name in ("qubit_bounds", "photon_bounds"):
        monkeypatch.setattr(bounds, name, counting(name, getattr(bounds, name)))
    model = bounds.point_model(fns.product(2), (1.0, 2.0))
    bounds.for_budget(model, ResourceBudget("qubit-time", 10.0))
    bounds.for_budget(model, ResourceBudget("photon-number", 10))
    assert calls == ["qubit_bounds", "photon_bounds"]
    # the benchmark splits the beam's wall time per protocol through
    # interpolation.estimate_mse: one call each, then the bound
    calls.clear()
    monkeypatch.setattr(ip, "estimate_mse",
                        counting("estimate_mse", ip.estimate_mse))
    ip.run_interpolation(BEAM, TRUE, LAYOUT, ResourceBudget("qubit-time", 1e4),
                         trials=100, seed=1)
    assert calls == ["estimate_mse", "estimate_mse", "qubit_bounds"]


def test_batch_rules_report_their_own_faults():
    block = READINGS + np.zeros((4, 3))
    # a Jacobian rule of the wrong shape is named, not taken for a singular
    # Jacobian
    thin = replace(BEAM, label="broken", jacobian_batch_rule=lambda cs, x:
                   BEAM.jacobian_batch_rule(cs, x)[:, :, :2])
    with pytest.raises(ValueError,
                       match=r"jacobian_batch_rule of broken returned shape "
                             r"\(1, 3, 2\), expected \(1, 3, 3\)") as info:
        ip.induced_function(thin, LAYOUT, TRUE).values(block + 1e-3)
    assert not isinstance(info.value, ip.SingularJacobianError)
    wide = replace(BEAM, label="broken", field_batch_rule=lambda cs, x:
                   BEAM.field_batch_rule(cs, np.append(x, 0.0)))
    with pytest.raises(ValueError, match=r"field_batch_rule of broken .*"
                                         r"expected \(1, 3\)"):
        ip.induced_function(wide, LAYOUT, TRUE).values(block)
    # a NaN field is reported as such, not as a diverged inversion
    nan = replace(BEAM, label="broken", field_batch_rule=lambda cs, x:
                  np.full((len(cs), x.size), np.nan))
    with pytest.raises(fns.EvaluationError,
                       match="non-finite field value of broken"):
        ip.induced_function(nan, LAYOUT, TRUE).values(block)


def invert(readings, layout, start):
    """The sensor-map inversion the induced function runs, for one row."""
    return ip._batch_newton(BEAM, layout, np.asarray(readings)[None, :],
                            np.asarray(start, dtype=float), fns.Workspace())[0]


def test_batch_newton_returns_a_fresh_c_ordered_block_for_any_layout():
    rng = np.random.default_rng(3)
    readings = READINGS + 1e-3 * rng.standard_normal((50, 3))
    space = fns.Workspace()
    got = ip._batch_newton(BEAM, LAYOUT, readings, TRUE, space)
    assert got.flags.c_contiguous and got.flags.writeable
    assert not any(np.shares_memory(got, buf) for buf in space.buffers.values())
    bits = got.tobytes()
    # readings that arrive as a transposed view invert to the same bits
    again = ip._batch_newton(BEAM, LAYOUT, np.asfortranarray(readings), TRUE,
                             space)
    assert again.tobytes() == bits and got.tobytes() == bits


def test_empty_reading_block_gives_empty_results():
    # the same shapes as a closed-form function gives, with no inversion
    empty = np.empty((0, 3))
    fn, closed = ip.induced_function(BEAM, LAYOUT, TRUE), fns.product(3)
    assert fn.values(empty).shape == closed.values(empty).shape == (0,)
    assert fn.gradients(empty).shape == closed.gradients(empty).shape == (0, 3)
    assert ip._batch_newton(BEAM, LAYOUT, empty, TRUE,
                            fns.Workspace()).shape == (0, 3)
    assert fn.value(READINGS) == pytest.approx(np.exp(-0.02), rel=1e-12)


def test_fit_noiseless_round_trip():
    params = invert(READINGS, LAYOUT, (0.9, 0.1, 1.1))
    np.testing.assert_allclose(params, TRUE, rtol=0, atol=1e-9)
    again = ip.forward_readings(BEAM, params, LAYOUT)
    np.testing.assert_allclose(again, READINGS, rtol=0, atol=1e-9)


def test_fit_perturbed_readings_match_linearization():
    rng = np.random.default_rng(5)
    delta = 1e-3 * rng.standard_normal(3)
    params = invert(READINGS + delta, LAYOUT, (0.9, 0.1, 1.1))
    jac = BEAM.jacobian(TRUE, LAYOUT.points())
    linear = np.linalg.solve(jac, delta)
    err = params - TRUE
    assert np.linalg.norm(err - linear) < 0.02 * np.linalg.norm(linear)


def test_fit_far_starts_never_answer_silently():
    # amplitude sits linearly in the model, so even a 10x amplitude start
    # converges; genuinely lost starts raise instead of returning a non-root
    params = invert(READINGS, LAYOUT, (10.0, 0.1, 1.1))
    np.testing.assert_allclose(params, TRUE, rtol=0, atol=1e-9)
    for start in ((1.0, 0.0, 8.0), (10.0, 3.0, 0.2), (0.0, 0.1, 1.0)):
        with pytest.raises(ip.SingularJacobianError):
            invert(READINGS, LAYOUT, start)


def test_fit_underdetermined_layout_rejected():
    # only a square layout makes the reading map invertible
    for locations in ((-1.0, 0.3), (-1.0, 0.0, 0.3, 1.2)):
        with pytest.raises(ValueError, match="square"):
            ip.induced_function(BEAM, ip.SensorLayout(locations, 0.1), TRUE)


def test_random_layout_round_trips():
    for layout, true, readings, jac, start in random_layout_cases(7, 100):
        params = invert(readings, layout, start)
        again = ip.forward_readings(BEAM, params, layout)
        np.testing.assert_allclose(again, readings, rtol=0, atol=1e-9)
        resid = jac @ np.linalg.inv(jac) - np.eye(3)
        assert np.abs(resid).max() < 1e-9


def test_induced_function_gradient():
    fn = ip.induced_function(BEAM, LAYOUT, TRUE)
    assert fn.dim == 3
    assert fn.value(READINGS) == pytest.approx(np.exp(-0.02), rel=1e-12)
    grad = fn.gradient(READINGS)
    np.testing.assert_allclose(grad, GRAD_G, rtol=1e-7)
    # central differences of the full pipeline agree
    fd = np.empty(3)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd[j] = (fn.value(READINGS + e) - fn.value(READINGS - e)) / (2 * h)
    np.testing.assert_allclose(fd, grad, rtol=0, atol=1e-5)


def test_induced_function_batch_matches_scalar():
    fn = ip.induced_function(BEAM, LAYOUT, TRUE)
    rng = np.random.default_rng(11)
    block = READINGS + 1e-3 * rng.standard_normal((8, 3))
    vals = fn.values(block)
    np.testing.assert_allclose(
        vals, [fn.value(row) for row in block], rtol=0, atol=1e-9)
    grads = fn.gradients(block)
    np.testing.assert_allclose(
        grads, [fn.gradient(row) for row in block], rtol=0, atol=1e-9)


def test_induced_function_validation():
    with pytest.raises(ip.SingularJacobianError, match="anchor"):
        ip.induced_function(BEAM, LAYOUT, (0.0, 0.0, 1.0))


def exponential_ansatz():
    """a exp(b x): two parameters, so its solves take the LAPACK path."""
    return ip.Ansatz(
        param_dim=2, label="exponential",
        field_rule=lambda c, x: c[0] * np.exp(c[1] * x),
        jacobian_rule=lambda c, x: np.stack(
            [np.exp(c[1] * x), c[0] * x * np.exp(c[1] * x)], axis=1),
        field_batch_rule=lambda cs, x: cs[:, :1] * np.exp(cs[:, 1:] * x),
        jacobian_batch_rule=lambda cs, x: np.stack(
            [np.exp(cs[:, 1:] * x), cs[:, :1] * x * np.exp(cs[:, 1:] * x)],
            axis=2))


def test_two_parameter_ansatz_matches_its_analytic_inverse():
    # two sensors fix a = theta_0 exp(-b x_0), b = ln(theta_1/theta_0)/(x_1 -
    # x_0), so the field at x* is theta_0^(1-s) theta_1^s, s = (x* - x_0)/(x_1 - x_0)
    ansatz = exponential_ansatz()
    layout = ip.SensorLayout((-0.5, 1.0), 0.4)
    s = (0.4 + 0.5) / 1.5
    fn = ip.induced_function(ansatz, layout, (1.0, 0.5))
    readings = ip.forward_readings(ansatz, (1.0, 0.5), layout)
    rng = np.random.default_rng(4)
    block = readings * (1.0 + 0.05 * rng.standard_normal((16, 2)))
    want = block[:, 0] ** (1.0 - s) * block[:, 1] ** s
    # Newton stops at a residual of NEWTON_RTOL = 1e-10 of the readings
    np.testing.assert_allclose(fn.values(block), want, rtol=1e-9)
    np.testing.assert_allclose(
        fn.gradients(block),
        np.stack([(1.0 - s) * want / block[:, 0], s * want / block[:, 1]], axis=1),
        rtol=1e-9)
    # a zero-amplitude start zeroes a Jacobian column: LAPACK's singular pivot
    # is reported as a singular Jacobian, not as a bare LinAlgError
    with pytest.raises(ip.SingularJacobianError):
        ip._batch_newton(ansatz, layout, readings[None, :], np.array([0.0, 0.5]),
                         fns.Workspace())


def test_target_at_sensor_reduces_to_projection():
    # the field at a sensor location IS that reading: gradient is the unit
    # vector, both bounds collapse, and the advantage ratio is exactly 1
    layout = ip.SensorLayout((-1.0, 0.3, 1.2), 0.3)
    fn = ip.induced_function(BEAM, layout, TRUE)
    readings = ip.forward_readings(BEAM, TRUE, layout)
    assert fn.value(readings) == readings[1]
    np.testing.assert_allclose(fn.gradient(readings), [0.0, 1.0, 0.0],
                               rtol=0, atol=1e-12)
    report = bounds.qubit_bounds(bounds.point_model(fn, readings), 1e3)
    assert report.entangled_bound == pytest.approx(1e-6, rel=1e-9)
    assert report.unentangled_baseline == pytest.approx(1e-6, rel=1e-9)
    assert report.advantage_ratio == pytest.approx(1.0, rel=1e-9)


def test_run_interpolation_pipeline():
    report = ip.run_interpolation(
        BEAM, TRUE, LAYOUT, ResourceBudget("qubit-time", 1e4),
        trials=20000, seed=7)
    assert report.truth == pytest.approx(np.exp(-0.02), rel=1e-12)

    g2 = float(np.abs(GRAD_G).max() ** 2)
    assert report.bound_report.entangled_bound == pytest.approx(
        g2 / 1e8, rel=1e-6)
    assert report.bound_report.unentangled_baseline == pytest.approx(
        float(GRAD_G @ GRAD_G) / 1e8, rel=1e-6)
    assert report.bound_report.advantage_ratio == pytest.approx(
        1.47374494, rel=1e-6)
    assert not report.bound_report.conjectured

    # the simulated protocols match their own full predictions; the step-1
    # correction terms keep the two-step MSE a documented margin above the
    # pure step-2 floor at this budget
    assert abs(report.two_step.mse - report.predicted_two_step) < \
        4 * report.two_step.se
    assert abs(report.unentangled.mse -
               report.bound_report.unentangled_baseline) < \
        4 * report.unentangled.se
    assert report.predicted_two_step > report.bound_report.entangled_bound
    assert 1.0 < report.advantage < report.bound_report.advantage_ratio
    expected = (report.bound_report.unentangled_baseline /
                report.predicted_two_step)
    assert report.advantage == pytest.approx(expected, rel=0.06)


def test_run_interpolation_deterministic():
    budget = ResourceBudget("qubit-time", 1e3)
    a = ip.run_interpolation(BEAM, TRUE, LAYOUT, budget, trials=2000, seed=3)
    b = ip.run_interpolation(BEAM, TRUE, LAYOUT, budget, trials=2000, seed=3)
    assert a.two_step.mse == b.two_step.mse
    assert a.unentangled.mse == b.unentangled.mse
    # the two protocols draw from distinct streams of the same seed
    assert a.two_step.mse != a.unentangled.mse


def test_run_interpolation_resolves_its_plan_once(monkeypatch):
    from qsn import experiment

    calls = []
    build_plan = experiment.build_plan
    monkeypatch.setattr(experiment, "build_plan",
                        lambda *a, **k: calls.append(a) or build_plan(*a, **k))
    report = ip.run_interpolation(BEAM, TRUE, LAYOUT,
                                  ResourceBudget("qubit-time", 1e3),
                                  trials=2000, seed=3)
    assert len(calls) == 1
    # the report's bits at this seed, as the closed-form 3x3 solves give
    # them; sharing the plan left every bit as it was
    assert (report.two_step.mse, report.two_step.se, report.two_step.bias,
            report.unentangled.mse, report.unentangled.se,
            report.predicted_two_step,
            report.bound_report.entangled_bound) == (
        7.019545991090697e-06, 2.4165935604261984e-07,
        -0.00031952300447500977, 5.157993578892546e-06,
        1.6626097860277843e-07, 6.8073851393998595e-06,
        3.7642583081099797e-06)


def test_run_interpolation_derives_one_model(monkeypatch):
    rows = count_inversions(monkeypatch)
    ip.run_interpolation(BEAM, TRUE, LAYOUT, ResourceBudget("qubit-time", 1e3),
                         trials=2000, seed=3)
    # outside the two 2000-row chunks: the model's gradient, Hessian stencil
    # and third-slice stencil, then each estimate's true value
    assert [n for n in rows if n != 2000] == [1, 6, 7, 1, 1]


def test_run_interpolation_thread_count_keeps_every_bit():
    # three chunks on up to three workers, switching often: each worker
    # must see only its own inversions
    budget = ResourceBudget("qubit-time", 1e4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reports = [repr(ip.run_interpolation(BEAM, TRUE, LAYOUT, budget,
                                             trials=2 * CHUNK + 1, seed=5,
                                             threads=t))
                   for t in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_two_step_chunk_inverts_its_draws_once(monkeypatch):
    rows = count_inversions(monkeypatch)
    fn = ip.induced_function(BEAM, LAYOUT, TRUE)
    cfg = ExperimentConfig(fn, tuple(READINGS), ResourceBudget("qubit-time", 1e4))
    estimate_mse(cfg, 2 * CHUNK + 100, master_seed=1, threads=2)
    # one inversion per chunk, shared by its gradients and values calls on
    # whichever thread runs the chunk; the plan's derivative stencils invert
    # blocks of at most 2d + 1 rows
    assert sorted(n for n in rows if n > 2 * LAYOUT.dim + 1) == [100, CHUNK, CHUNK]


def test_model_coefficients_invert_each_stencil_once(monkeypatch):
    # the gradient at the readings, then the Hessian's 2d points and the
    # third slice's 2d + 1 points, one block each
    rows = count_inversions(monkeypatch)
    fn = ip.induced_function(BEAM, LAYOUT, TRUE)
    bounds.point_model(fn, READINGS)
    assert rows == [1, 6, 7]


def test_block_changed_in_place_is_inverted_afresh():
    rng = np.random.default_rng(2)
    block = READINGS + 1e-3 * rng.standard_normal((16, 3))
    fn = ip.induced_function(BEAM, LAYOUT, TRUE)
    grads = fn.gradients(block)
    fresh = ip.induced_function(BEAM, LAYOUT, TRUE)
    assert np.array_equal(fn.values(block), fresh.values(block))
    assert np.array_equal(grads, fresh.gradients(block))
    block[3, 1] += 2e-3
    fresh = ip.induced_function(BEAM, LAYOUT, TRUE)
    assert np.array_equal(fn.values(block), fresh.values(block))
    assert np.array_equal(fn.gradients(block), fresh.gradients(block))


def test_returned_arrays_are_the_callers_and_match_fresh_functions():
    # the workspace is reused by every later call on this thread: other
    # blocks, other row counts, and a second function with its own layout
    # and anchor; no array handed out may change, and each must carry the
    # bits a freshly built function gives
    other = (ip.SensorLayout((-0.8, 0.2, 0.9), -0.3), np.array([1.3, 0.1, 0.9]))
    cases = [(LAYOUT, TRUE), other]
    made = [ip.induced_function(BEAM, layout, true) for layout, true in cases]
    rng = np.random.default_rng(8)
    handed_out = []
    for rows in (CHUNK, 1, 6, CHUNK, 6, 1):
        for fn, (layout, true) in zip(made, cases):
            block = (ip.forward_readings(BEAM, true, layout)
                     + 1e-3 * rng.standard_normal((rows, 3)))
            got = [fn.gradients(block), fn.values(block), fn.gradient(block[0]),
                   np.array(fn.value(block[-1]))]
            fresh = ip.induced_function(BEAM, layout, true)
            want = [fresh.gradients(block), fresh.values(block),
                    ip.induced_function(BEAM, layout, true).gradient(block[0]),
                    np.array(ip.induced_function(BEAM, layout, true).value(block[-1]))]
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
            handed_out += [(g, g.tobytes()) for g in got]
    for arr, bits in handed_out:
        assert arr.tobytes() == bits
