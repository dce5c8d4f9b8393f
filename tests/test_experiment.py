import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import qsn
from qsn import allocation as al, bounds, experiment as ex, functions as fns, protocol as pr
from qsn.measurement import RngStream


def product_config(theta=(1.0, 1.0), amount=1e3, protocol="two-step"):
    return ex.ExperimentConfig(
        function=fns.product(2),
        theta=tuple(theta),
        budget=pr.ResourceBudget("qubit-time", amount),
        protocol=protocol,
    )


def test_collect_error_moments_gaussian():
    v = 0.3

    def draw(stream, n):
        return np.sqrt(v) * stream.generator().standard_normal(n)

    trials = 100000
    m1, m2, m4 = ex.collect_error_moments(draw, trials, RngStream(7, 0))
    assert abs(m1) < 4 * np.sqrt(v / trials)
    assert abs(m2 - v) < 4 * np.sqrt(2 * v * v / trials)
    assert m4 == pytest.approx(3 * v * v, rel=0.05)

    # chunk-ordered compensated reduction: thread count cannot change a bit
    serial = ex.collect_error_moments(draw, trials, RngStream(7, 0), threads=1)
    threaded = ex.collect_error_moments(draw, trials, RngStream(7, 0), threads=4)
    assert serial == threaded


def test_collect_error_moments_rejects_bad_draws():
    with pytest.raises(fns.EvaluationError):
        ex.collect_error_moments(
            lambda s, n: np.full(n, np.nan), 200, RngStream(1))
    with pytest.raises(ValueError):
        ex.collect_error_moments(
            lambda s, n: np.zeros((n, 2)), 200, RngStream(1))


def test_harness_rejects_nonpositive_trials():
    # the shared harness checks the count, so every driver inherits it
    for trials in (-5, 0):
        with pytest.raises(ValueError, match="trials must be positive"):
            ex.collect_error_moments(lambda s, n: np.zeros(n), trials,
                                     RngStream(1))


def test_estimate_mse_gaussian_estimator():
    # linear target, step-1-free plan: the estimate is exactly
    # Normal(truth, 16/t^2), so the MSE must recover that variance
    cfg = ex.ExperimentConfig(
        function=fns.linear([3.0, 4.0]),
        theta=(0.7, -0.4),
        budget=pr.ResourceBudget("qubit-time", 10.0),
    )
    est = ex.estimate_mse(cfg, 200000, master_seed=7)
    assert est.trials == 200000
    assert abs(est.mse - 0.16) < 4 * est.se
    assert abs(est.bias) < 4 * np.sqrt(est.mse / est.trials)
    assert est.mse >= est.bias**2 - 3 * est.se

    with pytest.raises(ValueError):
        ex.estimate_mse(cfg, 99, master_seed=7)


def test_estimate_mse_deterministic_across_threads():
    cfg = product_config()
    a = ex.estimate_mse(cfg, 20000, master_seed=7)
    b = ex.estimate_mse(cfg, 20000, master_seed=7)
    c = ex.estimate_mse(cfg, 20000, master_seed=7, threads=4)
    assert (a.mse, a.se, a.bias) == (b.mse, b.se, b.bias)
    assert (a.mse, a.se, a.bias) == (c.mse, c.se, c.bias)
    d = ex.estimate_mse(cfg, 20000, master_seed=8)
    assert d.mse != a.mse


def test_estimate_mse_bias_variance_decomposition():
    # MSE >= bias^2 - 3 SE across protocols and budgets
    for cfg, trials in (
        (product_config((1.0, 0.7), 1e3), 20000),
        (product_config((1.0, 0.7), 1e3, "unentangled"), 20000),
        (product_config((0.5, -0.8), 1e4), 20000),
    ):
        est = ex.estimate_mse(cfg, trials, master_seed=3)
        assert est.mse >= est.bias**2 - 3 * est.se


# Replicates and gate of the SE calibration test. At 200 replicates of
# 20,000 trials, master seeds 1-40 put the SD-to-mean-SE ratio of every case
# below at 0.86-1.12 (SD 0.05 over seeds); at 60 replicates, seed 7's
# two-step cases read 0.69. An SE reported twice too large reads about 0.5,
# and one 1.5 times too large about 0.67.
SE_REPLICATES = 200
SE_RATIO_GATE = (0.75, 1.3)


@pytest.mark.parametrize("kind, amount, protocol, pilot_fraction", [
    ("qubit-time", 1e3, "two-step", None), ("photon-number", 1000, "two-step", None),
    ("qubit-time", 1e3, "unentangled", None),
    ("photon-number", 1000, "unentangled", 0.1)], ids=[
    "qubit-time-1000.0-two-step", "photon-number-1000-two-step",
    "qubit-time-1000.0-unentangled", "photon-number-1000-unentangled-pilot"])
def test_reported_se_matches_the_replicate_spread(kind, amount, protocol,
                                                   pilot_fraction):
    # replicate k draws chunk c from stream k * 2**20 + c; for k >= 1 these
    # meet neither each other nor the streams 0 .. 2**20 - 1 that stream
    # index 0's chunks share with other callers
    cfg = ex.ExperimentConfig(fns.product(2), (1.0, 1.0),
                              pr.ResourceBudget(kind, amount), protocol=protocol,
                              pilot_fraction=pilot_fraction)
    if protocol == "two-step":
        cfg = dataclasses.replace(cfg, plan=cfg.resolved_plan())
    runs = [ex.estimate_mse(cfg, 20_000, 7, stream_index=k)
            for k in range(1, SE_REPLICATES + 1)]
    ratio = np.std([r.mse for r in runs], ddof=1) / np.mean([r.se for r in runs])
    assert SE_RATIO_GATE[0] <= ratio <= SE_RATIO_GATE[1], ratio


def test_all_degenerate_runs_rejected():
    # a step-1-free plan with zero gradient at the prior never measures
    cfg = ex.ExperimentConfig(
        function=fns.quadratic(np.eye(2)),
        theta=(0.0, 0.0),
        budget=pr.ResourceBudget("qubit-time", 100.0),
        plan=al.fixed_time_split(100.0, 0.0),
    )
    with pytest.raises(ValueError, match="degenerate"):
        ex.estimate_mse(cfg, 200, master_seed=1)

    # a constant target degenerates every trial even with step-1 noise
    const = fns.from_rules(2, "const", lambda th: np.full(len(th), 3.0), None,
                           None, grad_batch_rule=np.zeros_like)
    cfg = ex.ExperimentConfig(
        function=const,
        theta=(0.2, -0.1),
        budget=pr.ResourceBudget("qubit-time", 100.0),
        plan=al.fixed_time_split(100.0, 30.0),
    )
    with pytest.raises(ValueError, match="degenerate"):
        ex.estimate_mse(cfg, 200, master_seed=1)


def test_config_rejects_options_its_protocol_ignores():
    base = fns.product(2)
    budget = pr.ResourceBudget("photon-number", 1000)
    plan = al.fixed_time_split(1e3, 0.5)
    with pytest.raises(ValueError, match="pilot fraction"):
        ex.ExperimentConfig(base, (1.0, 1.0), budget, pilot_fraction=0.1)
    with pytest.raises(ValueError, match="plan"):
        ex.ExperimentConfig(base, (1.0, 1.0), budget, protocol="unentangled",
                            plan=plan)
    with pytest.raises(ValueError, match="policy"):
        ex.ExperimentConfig(base, (1.0, 1.0), budget, protocol="unentangled",
                            policy="fixed:60")


def test_config_rejects_a_plan_for_another_budget():
    base = fns.product(2)
    photons = al.fixed_photon_split(bounds.point_model(base, (1.0, 1.0)), 100, 10)
    for budget, plan in ((pr.ResourceBudget("qubit-time", 1e4), photons),
                         (pr.ResourceBudget("photon-number", 200), photons),
                         (pr.ResourceBudget("qubit-time", 1e4),
                          al.fixed_time_split(1e3, 30.0))):
        with pytest.raises(ValueError, match="budget"):
            ex.ExperimentConfig(base, (1.0, 1.0), budget, plan=plan)
    ex.ExperimentConfig(base, (1.0, 1.0), pr.ResourceBudget("photon-number", 100),
                        plan=photons)


def test_mse_estimate_validation():
    with pytest.raises(ValueError):
        ex.MSEEstimate(trials=100, mse=-1.0, se=0.1, bias=0.0)
    with pytest.raises(ValueError):
        ex.MSEEstimate(trials=100, mse=1.0, se=-0.1, bias=0.0)


def test_verify_general_fom_squared_quadratic():
    rep = ex.verify_general_fom(
        fns.quadratic([[1.0]], label="x1^2"), (1.0,), [0.01], 10**6, seed=7)
    assert rep.predicted == pytest.approx(3e-4, rel=1e-12)
    assert rep.predicted_unsquared == pytest.approx(2e-4, rel=1e-12)
    assert abs(rep.z) < 4
    assert rep.z_unsquared > 10


def test_verify_general_fom_linear_exact_zero():
    rep = ex.verify_general_fom(
        fns.linear([3.0, 4.0]), (0.7, -0.4), [0.01, 0.01], 1000, seed=7)
    assert rep.predicted == 0.0
    assert rep.empirical == 0.0
    assert rep.se == 0.0
    assert rep.z == 0.0


def test_verify_general_fom_product_coincidence():
    # for x1 x2 the squared and unsquared cross terms agree (2*1^2 = 2*1),
    # so this member cannot discriminate the two formulas
    rep = ex.verify_general_fom(
        fns.product(2), (1.0, 1.0), 0.0025, 200000, seed=7)
    assert rep.predicted == pytest.approx(6.25e-6, rel=1e-12)
    assert rep.predicted == rep.predicted_unsquared
    assert abs(rep.z) < 4


def test_verify_general_fom_validation():
    f = fns.product(2)
    with pytest.raises(ValueError):
        ex.verify_general_fom(f, (1.0, 1.0), [0.0, 0.01], 1000, seed=1)
    with pytest.raises(ValueError):
        ex.verify_general_fom(f, (1.0, 1.0), 0.01, 99, seed=1)


def test_verify_general_fom_evaluates_the_hessian_once():
    base = fns.quadratic([[1.0, -0.75], [-0.75, 2.0]], offset=[0.5, -1.0])
    calls = []

    def hess_rule(p):
        calls.append(1)
        return base.hess_rule(p)

    fn = dataclasses.replace(base, hess_rule=hess_rule)
    rep = ex.verify_general_fom(fn, (0.3, -0.2), 0.0025, 500, seed=7)
    assert len(calls) == 1
    assert rep == ex.verify_general_fom(base, (0.3, -0.2), 0.0025, 500, seed=7)


def test_fom_report_infinite_z_when_se_vanishes():
    rep = ex.FomReport(trials=100, empirical=1.0, se=0.0,
                       predicted=0.5, predicted_unsquared=2.0)
    assert rep.z == np.inf
    assert rep.z_unsquared == -np.inf


def test_fom_battery_composition():
    battery = ex.fom_battery()
    assert len(battery) == 10
    labels = [fn.label for fn, _ in battery]
    assert len(set(labels)) == 10
    for fn, theta in battery:
        assert len(theta) == fn.dim
        assert np.isfinite(fn.value(theta))


def test_fom_battery_squared_formula_wins():
    # squared cross terms match simulation on every member; the unsquared
    # variant is rejected loudly by the members that can tell them apart
    for fn, theta in ex.fom_battery():
        for sigma in (0.02, 0.05, 0.1):
            rep = ex.verify_general_fom(fn, theta, sigma**2, 30000, seed=11)
            assert abs(rep.z) < 4, (fn.label, sigma, rep.z)
    for label in ("x1^2", "2 x1 x2"):
        fn, theta = next(p for p in ex.fom_battery() if p[0].label == label)
        rep = ex.verify_general_fom(fn, theta, 0.01, 30000, seed=11)
        assert rep.z_unsquared > 10, (label, rep.z_unsquared)


def test_sweep_records_product():
    cfg = product_config()
    grid = (1e3, 1e4, 1e5)
    records = ex.sweep_resource(cfg, grid, trials=20000, master_seed=7)
    assert [r.resource for r in records] == list(grid)
    predicted = [1.1988494e-06, 1.0747451e-08, 1.0291202e-10]
    for rec, t, pred in zip(records, grid, predicted):
        assert rec.protocol == "two-step"
        assert rec.function == "product:d=2"
        assert rec.theta == (1.0, 1.0)
        assert rec.resource_kind == "qubit-time"
        assert rec.trials == 20000
        assert rec.seed == 7
        assert rec.ms_elapsed >= 0.0
        assert rec.predicted_mse == pytest.approx(pred, rel=1e-6)
        assert rec.bound == pytest.approx(1.0 / t**2)
        # Cramer-Rao respect, up to Monte Carlo noise
        assert rec.mse >= rec.bound - 4 * rec.mse_se
    scaled = [r.mse * r.resource**2 for r in records]
    assert scaled[0] > scaled[1] > scaled[2] > 1.0

    again = ex.sweep_resource(cfg, grid, trials=20000, master_seed=7)
    for a, b in zip(records, again):
        assert (a.mse, a.mse_se, a.bias) == (b.mse, b.mse_se, b.bias)


@pytest.mark.parametrize("protocol, plans", [("two-step", 3),
                                              ("unentangled", 0)])
def test_sweep_resolves_each_plan_once(monkeypatch, protocol, plans):
    calls = []
    build_plan = ex.build_plan
    monkeypatch.setattr(ex, "build_plan",
                        lambda *a, **k: calls.append(a) or build_plan(*a, **k))
    cfg = product_config((0.8, 1.3), protocol=protocol)
    records = ex.sweep_resource(cfg, (1e3, 1e4, 1e5), trials=200,
                                master_seed=5)
    assert len(records) == 3
    assert [a[1].amount for a in calls] == [1e3, 1e4, 1e5][:plans]


@pytest.mark.parametrize("kind, grid, policy", [
    ("qubit-time", (1e3, 1e4, 1e5), "optimal"),
    ("qubit-time", (1e3, 1e4, 1e5), "numeric"),
    ("photon-number", (2000, 20000), "optimal"),
    ("photon-number", (2000, 20000), "fixed:60"),
])
def test_sweep_derives_each_points_model_once(kind, grid, policy):
    # each record's model column is the prediction for its own point's plan
    fn = fns.product(3)
    cfg = ex.ExperimentConfig(fn, (0.8, 1.1, 1.3), pr.ResourceBudget(kind, grid[0]),
                              policy=policy)
    records = ex.sweep_resource(cfg, grid, trials=200, master_seed=5)
    for rec, amount in zip(records, grid):
        model = bounds.point_model(fn, cfg.theta)
        plan = pr.build_plan(model, pr.ResourceBudget(kind, amount), policy)
        assert rec.predicted_mse == al.predicted_mse(model, plan)


@pytest.mark.parametrize("protocol", ["two-step", "unentangled"])
@pytest.mark.parametrize("kind, grid, policy", [
    ("qubit-time", (1e3, 1e4, 1e5), "optimal"),
    ("qubit-time", (1e3, 1e4, 1e5), "numeric"),
    ("qubit-time", (1e3, 1e4, 1e5), "fixed:30"),
    ("photon-number", (2000, 20000, 200000), "optimal"),
    ("photon-number", (2000, 20000, 200000), "fixed:60"),
])
def test_sweep_calls_each_derivative_rule_once(monkeypatch, protocol, kind,
                                               grid, policy):
    # one point model for the whole grid: plans, predictions and bounds
    # read it, and none of them calls a rule again. The separable photon
    # baseline allocates from the true gradient once per estimate, in
    # separable_split; calls made by the Monte Carlo runners and that split
    # are not the model's and not counted.
    counts = {"grad": 0, "hess": 0, "third": 0}
    running = []

    def counted(name, rule):
        def call(*args):
            if not running:
                counts[name] += 1
            return rule(*args)
        return call

    def runner(run):
        def call(*args):
            running.append(1)
            try:
                return run(*args)
            finally:
                running.pop()
        return call

    for name in ("run_two_step_batch", "run_unentangled_batch",
                 "separable_split"):
        monkeypatch.setattr(ex, name, runner(getattr(ex, name)))
    base = fns.product(3)
    fn = fns.from_rules(3, "counted product", base.value_rule, None,
                        counted("hess", base.hess_rule),
                        counted("third", base.third_diag_rule),
                        grad_batch_rule=counted("grad", base.grad_batch_rule))
    if protocol == "unentangled":
        policy = "optimal"  # the baseline has no split to allocate
    cfg = ex.ExperimentConfig(fn, (0.8, 1.1, 1.3),
                              pr.ResourceBudget(kind, grid[0]),
                              protocol=protocol, policy=policy)
    records = ex.sweep_resource(cfg, grid, trials=200, master_seed=5)
    assert len(records) == 3
    assert counts == {"grad": 1, "hess": 1, "third": 1}


def test_separable_split_is_taken_once_per_estimate(monkeypatch):
    # three chunks share one allocation: the clairvoyant split's gradient
    # and the pilot stage's split are each computed once per call; the
    # pilot gradients the runner evaluates per trial are not counted
    calls = {"grad": 0, "pilot": 0}
    base = fns.product(3)
    run_unentangled = ex.run_unentangled_batch
    running = []

    def grad(points):
        if not running:
            calls["grad"] += 1
        return base.grad_batch_rule(points)

    def runner(*args):
        running.append(1)
        try:
            return run_unentangled(*args)
        finally:
            running.pop()

    pilot_stage = pr._pilot_stage

    def pilot(*args):
        calls["pilot"] += 1
        return pilot_stage(*args)

    monkeypatch.setattr(pr, "_pilot_stage", pilot)
    monkeypatch.setattr(ex, "run_unentangled_batch", runner)
    fn = fns.from_rules(3, "counted product", base.value_rule, None,
                        base.hess_rule, grad_batch_rule=grad)
    budget = pr.ResourceBudget("photon-number", 3000)
    for fraction in (None, 0.1):
        cfg = ex.ExperimentConfig(fn, (0.8, 1.1, 1.3), budget,
                                  protocol="unentangled", pilot_fraction=fraction)
        ex.estimate_mse(cfg, 2 * ex.CHUNK + 1, master_seed=3, threads=2)
    assert calls == {"grad": 1, "pilot": 1}


# -- persistent chunk workers --------------------------------------------------


def on_new_threads(*calls, timeout=60.0):
    """Each call on its own new thread, which owns no chunk workers yet. A
    call that has not finished after ``timeout`` s fails the test instead of
    stalling the suite; an error a call raises is raised here."""
    results = [None] * len(calls)

    def run(i):
        try:
            results[i] = (True, calls[i]())
        except BaseException as exc:
            results[i] = (False, exc)

    callers = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(len(calls))]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout)
        assert not caller.is_alive(), "a call did not finish: deadlock?"
    for ok, value in results:
        if not ok:
            raise value
    return [value for _, value in results]


def record_chunk_threads(monkeypatch):
    """(seed, thread) for every two-step chunk ``estimate_mse`` runs. The
    thread object is kept, not its ident: an ident may be reused once its
    thread ends, an object held here is not."""
    seen = []
    batch = ex.run_two_step_batch

    def recorded(fn, theta, plan, stream, n):
        seen.append((stream.seed, threading.current_thread()))
        return batch(fn, theta, plan, stream, n)

    monkeypatch.setattr(ex, "run_two_step_batch", recorded)
    return seen


def normal_draw(stream, n):
    return stream.generator().standard_normal(n)


def test_consecutive_calls_reuse_their_workers(monkeypatch):
    seen = record_chunk_threads(monkeypatch)
    cfg, trials = product_config(), 4 * ex.CHUNK

    def two_calls():
        first = ex.estimate_mse(cfg, trials, 7, threads=2)
        second = ex.estimate_mse(cfg, trials, 7, threads=2)
        # checked before this caller ends: its workers end with it
        alive = all(thread.is_alive() for _, thread in seen)
        return first, second, threading.current_thread(), alive

    ((first, second, caller, alive),) = on_new_threads(two_calls)
    workers = {thread for _, thread in seen}
    assert len(seen) == 8 and first == second
    # both calls ran on one pair of workers, still alive after the second
    assert len(workers) <= 2 and caller not in workers and alive
    for worker in workers:  # and they end with their caller
        worker.join(10)
        assert not worker.is_alive()
    assert first == ex.estimate_mse(cfg, trials, 7, threads=1)


@pytest.mark.parametrize("threads", (2, 3))
def test_no_call_runs_on_more_workers_than_threads(monkeypatch, threads):
    seen = record_chunk_threads(monkeypatch)
    cfg = product_config()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        on_new_threads(lambda: ex.estimate_mse(cfg, 6 * ex.CHUNK, 7,
                                               threads=threads))
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 6
    assert len({thread for _, thread in seen}) <= threads


def test_concurrent_callers_get_disjoint_workers(monkeypatch):
    seen = record_chunk_threads(monkeypatch)
    cfg, trials, seeds = product_config(), 4 * ex.CHUNK, (11, 12)
    want = [ex.estimate_mse(cfg, trials, seed, threads=1) for seed in seeds]
    seen.clear()
    start = threading.Barrier(2)

    def caller(seed):
        start.wait()
        return ex.estimate_mse(cfg, trials, seed, threads=2)

    got = on_new_threads(*(lambda s=seed: caller(s) for seed in seeds))
    assert got == want
    workers = [{thread for s, thread in seen if s == seed} for seed in seeds]
    assert all(1 <= len(w) <= 2 for w in workers)
    assert not workers[0] & workers[1]


# the draw runs on a worker, which gets workers of its own instead of
# queueing behind itself on the pool that runs it; run in a child
# interpreter, so that a deadlock cannot keep this one from exiting
FANS_OUT = """
from qsn import experiment as ex
from qsn.measurement import RngStream

def normal_draw(stream, n):
    return stream.generator().standard_normal(n)

def run(threads):
    def draw(stream, n):
        m1, _, _ = ex.collect_error_moments(normal_draw, 2 * ex.CHUNK,
                                            stream, threads)
        return normal_draw(stream, n) + m1

    return ex.collect_error_moments(draw, 3 * ex.CHUNK, RngStream(5), threads)

print(run(2) == run(1))
"""

# an estimate on two threads, whose workers are idle when the program ends
THREADED_ESTIMATE = """
from qsn import experiment as ex, functions as fns, protocol as pr
cfg = ex.ExperimentConfig(fns.product(2), (1.0, 1.0),
                          pr.ResourceBudget("qubit-time", 1e3))
print(repr(ex.estimate_mse(cfg, 3 * ex.CHUNK, 7, threads=2).mse))
"""


def run_python(code: str) -> str:
    """Standard output of ``code`` in a new interpreter, which must exit 0
    within 60 s."""
    src = str(Path(qsn.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_draw_that_fans_out_itself_completes():
    assert run_python(FANS_OUT) == "True\n"


def test_a_failing_chunk_propagates_and_spares_the_next_call():
    started, stopped = [], []
    last_started = threading.Event()

    def failing(stream, n):
        chunk = stream.index % 2**20
        started.append(chunk)
        try:
            if chunk == 0:
                last_started.wait(10)
            elif chunk == 1:
                raise ArithmeticError("chunk 1 fails")
            else:  # still running when the call sees chunk 1 fail
                last_started.set()
                time.sleep(0.2)
            return normal_draw(stream, n)
        finally:
            stopped.append(chunk)

    def calls():
        with pytest.raises(ArithmeticError, match="chunk 1 fails"):
            ex.collect_error_moments(failing, 3 * ex.CHUNK, RngStream(9), 2)
        # every chunk the call started had stopped when it raised
        assert sorted(stopped) == sorted(started)
        return ex.collect_error_moments(normal_draw, 3 * ex.CHUNK,
                                        RngStream(9), 2)

    want = ex.collect_error_moments(normal_draw, 3 * ex.CHUNK, RngStream(9), 1)
    assert on_new_threads(calls) == [want]


def _child_estimate(conn):
    conn.send(repr(ex.estimate_mse(product_config(), 3 * ex.CHUNK, 7,
                                   threads=2)))
    conn.close()


def test_a_forked_child_runs_threaded_estimates():
    # the forking thread owns live workers; the child's copies of them have
    # no threads, so it must start afresh instead of waiting on them
    def parent_then_child():
        want = repr(ex.estimate_mse(product_config(), 3 * ex.CHUNK, 7,
                                    threads=2))
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child_estimate, args=(send,))
        child.start()
        send.close()
        try:
            finished = receive.poll(60)
            got = receive.recv() if finished else None
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        return finished, got, want, child.exitcode

    ((finished, got, want, exitcode),) = on_new_threads(parent_then_child,
                                                        timeout=120)
    assert finished, "the forked child did not finish: deadlock?"
    assert exitcode == 0 and got == want


def test_idle_workers_let_the_interpreter_exit():
    want = ex.estimate_mse(product_config(), 3 * ex.CHUNK, 7, threads=1).mse
    assert run_python(THREADED_ESTIMATE) == f"{want!r}\n"


def test_sweep_off_tie_matches_prediction():
    # with distinct gradient components every point sits within 3 SE
    cfg = product_config((1.0, 0.7))
    records = ex.sweep_resource(cfg, (1e3, 1e4, 1e5), trials=50000,
                                master_seed=7)
    for rec in records:
        assert abs(rec.mse - rec.predicted_mse) < 3 * rec.mse_se


def test_sweep_unentangled_baseline():
    cfg = product_config(protocol="unentangled")
    (rec,) = ex.sweep_resource(cfg, (1e3,), trials=200000, master_seed=7)
    assert rec.predicted_mse == pytest.approx(2e-6)
    assert abs(rec.mse - rec.predicted_mse) < 4 * rec.mse_se
    assert rec.mse * 1e6 == pytest.approx(2.0, rel=0.02)


def test_sweep_grid_validation():
    cfg = product_config()
    assert ex.sweep_resource(cfg, (), trials=200, master_seed=1) == []
    with pytest.raises(ValueError, match="increasing"):
        ex.sweep_resource(cfg, (1e4, 1e3), trials=200, master_seed=1)


def records_at(resources, mses):
    """SweepRecords carrying only the (resource, mse) pairs a fit reads."""
    return [ex.SweepRecord("two-step", "f", (1.0,), "qubit-time", float(r),
                           100, float(m), 0.0, 0.0, 0.0, 0.0, 1, 0.0)
            for r, m in zip(resources, mses)]


def test_fit_scaling_exponent_synthetic():
    t = np.array([1e3, 1e4, 1e5, 1e6])
    slope, se = ex.fit_scaling_exponent(records_at(t, 5.0 / t**2))
    assert slope == pytest.approx(-2.0, rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)
    slope, _ = ex.fit_scaling_exponent(records_at(t, 0.3 / t))
    assert slope == pytest.approx(-1.0, rel=1e-12)

    with pytest.raises(ValueError, match="3 points"):
        ex.fit_scaling_exponent(records_at(t[:2], 5.0 / t[:2] ** 2))
    with pytest.raises(ValueError, match="positive"):
        ex.fit_scaling_exponent(records_at(t, [1.0, -1.0, 1.0, 1.0]))


def test_base_metadata():
    meta = ex.base_metadata()
    assert meta["version"] == qsn.__version__
    assert meta["modeling_assumptions"]
