"""Property tests, bounded so that the suite stays fast."""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qsn import allocation as al, bounds, functions as fns, interpolation as ip
from qsn import oracles
from qsn.cli import run_command
from qsn.experiment import CHUNK, ExperimentConfig, estimate_mse, sweep_resource
from qsn.measurement import largest_remainder
from qsn.protocol import ResourceBudget, build_plan

BEAM = ip.gaussian_beam()
LAYOUT = ip.SensorLayout((-1.0, 0.3, 1.2), 0.1)
TRUE = np.array([1.0, 0.0, 1.0])
READINGS = ip.forward_readings(BEAM, TRUE, LAYOUT)
FN = ip.induced_function(BEAM, LAYOUT, TRUE)

offsets = st.lists(st.floats(-1e-3, 1e-3), min_size=3, max_size=3)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(trials=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1]),
       protocol=st.sampled_from(["two-step", "unentangled"]),
       offset=offsets, seed=st.integers(0, 2**32 - 1))
def test_induced_beam_mse_is_thread_count_invariant(trials, protocol, offset,
                                                    seed):
    cfg = ExperimentConfig(FN, tuple(READINGS + offset),
                           ResourceBudget("qubit-time", 1e4), protocol=protocol)
    one, two = (estimate_mse(cfg, trials, seed, threads=t) for t in (1, 2))
    assert repr(one) == repr(two)
    assert one.trials == trials and np.isfinite(one.mse)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(offset=offsets, row=st.integers(0, 7), col=st.integers(0, 2),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_readings_raise_and_never_return_nan(offset, row, col, bad):
    theta = READINGS + offset
    block = np.tile(theta, (8, 1))
    block[row, col] = bad
    for evaluate in (FN.values, FN.gradients):
        with pytest.raises(fns.EvaluationError):
            evaluate(block)
    theta[col] = bad
    with pytest.raises(fns.EvaluationError):
        ExperimentConfig(FN, tuple(theta), ResourceBudget("qubit-time", 1e4))


def conditioned_block(seed, n, log_cond, scale):
    """(n, 3, 3) matrices U diag(s) V^T with singular values in
    [1, 10^log_cond], times 2^scale, and their condition numbers."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, 3, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((n, 3, 3)))[0]
    s = 10.0 ** rng.uniform(0.0, log_cond, size=(n, 3))
    mats = np.ldexp(u * s[:, None, :] @ np.transpose(v, (0, 2, 1)), scale)
    return mats, s.max(axis=1) / s.min(axis=1), rng.standard_normal((n, 3))


def assert_matches_lapack(mats, cond, rhs):
    eps = np.finfo(float).eps
    full = np.broadcast_to(mats, (len(rhs), 3, 3))
    work = np.empty((ip.SOLVE_WORK_ROWS, len(rhs)))
    for transposed in (False, True):
        want = np.linalg.solve(np.transpose(full, (0, 2, 1)) if transposed
                               else full, rhs[:, :, None])[:, :, 0]
        got = ip._solve_rows(mats, rhs, transposed, work=work)
        err = np.linalg.norm(got - want, axis=1)
        assert np.all(err <= 64 * eps * cond * np.linalg.norm(want, axis=1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
       log_cond=st.floats(0.0, 6.0), scale=st.integers(-20, 20))
def test_closed_form_3x3_solve_matches_lapack(seed, n, log_cond, scale):
    mats, cond, rhs = conditioned_block(seed, n, log_cond, scale)
    assert_matches_lapack(mats, cond, rhs)
    # one matrix broadcast over every right-hand side, as at the anchor
    assert_matches_lapack(mats[:1], cond[:1], rhs)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), row=st.integers(0, 7),
       col=st.integers(0, 2), fault=st.sampled_from(["zero", "rank2"]),
       transposed=st.booleans())
def test_one_singular_row_raises_and_never_returns_nan(seed, row, col, fault,
                                                       transposed):
    mats, _, rhs = conditioned_block(seed, 8, 2.0, 0)
    if fault == "zero":
        mats[row, :, col] = 0.0
    else:
        # a repeated column leaves rank 2 with a determinant of exactly 0
        mats[row, :, col] = mats[row, :, (col + 1) % 3]
    work = np.empty((ip.SOLVE_WORK_ROWS, len(rhs)))
    with pytest.raises(ip.SingularJacobianError):
        ip._solve_rows(mats, rhs, transposed, work=work)
    with pytest.raises(ip.SingularJacobianError):
        ip._solve_rows(mats[row:row + 1], rhs, transposed, work=work)


def fd_tolerance(step, order):
    """Rounding error of a central difference of the given order: a few eps
    of the differenced rule over step^order. The targets below keep |f| and
    |grad f| under 100 on every stencil, and no stencil here has a
    truncation error: each family is at most quadratic in every coordinate."""
    return 16 * np.finfo(float).eps * 100 / step**order


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["quadratic", "product"]), d=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_finite_difference_fallbacks_match_exact_rules(family, d, seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-2.0, 2.0, size=d)
    if family == "product":
        exact = fns.product(d)
        batch = exact.grad_batch_rule
    else:
        exact = fns.quadratic(rng.uniform(-1.0, 1.0, (d, d)),
                              rng.uniform(-1.0, 1.0, d))
        sym = exact.hessian(theta)

        def batch(points):
            # column by column, so each row's bits depend on that row alone
            out = np.tile(exact.gradient(np.zeros(d)), (len(points), 1))
            for k in range(d):
                out += points[:, k:k + 1] * sym[:, k]
            return out

    def scalar(th):
        return batch(np.asarray(th, float)[None, :])[0]

    looped = fns.from_rules(d, "looped", exact.value_rule, scalar, None)
    batched = fns.from_rules(d, "batched", exact.value_rule, scalar, None,
                             grad_batch_rule=batch)
    # a batch rule whose rows match the point rule gives the same bits
    assert np.array_equal(looped.hessian(theta), batched.hessian(theta))
    for j in range(d):
        assert np.array_equal(looped.third_diag_slice(theta, j),
                              batched.third_diag_slice(theta, j))

    h = exact.hessian(theta)
    np.testing.assert_allclose(batched.hessian(theta), h, rtol=0,
                               atol=fd_tolerance(fns.HESS_STEP, 1))
    # the oracle's value-only stencils
    np.testing.assert_allclose(oracles.fd_gradient(exact.value_rule, theta),
                               exact.gradient(theta), rtol=0,
                               atol=fd_tolerance(oracles.GRAD_STEP, 1))
    np.testing.assert_allclose(oracles.fd_hessian(exact.value_rule, theta), h,
                               rtol=0, atol=fd_tolerance(oracles.HESS_STEP, 2))
    for j in range(d):
        want = exact.third_diag_slice(theta, j)
        np.testing.assert_allclose(batched.third_diag_slice(theta, j), want,
                                   rtol=0, atol=fd_tolerance(fns.HESS_STEP, 2))
        np.testing.assert_allclose(
            oracles.fd_third_slice(exact.value_rule, theta, j), want, rtol=0,
            atol=fd_tolerance(oracles.THIRD_STEP, 3))


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["product", "quadratic"]),
       d=st.sampled_from([1, 2, 3, 4, 7, 8, 9]),
       kind=st.sampled_from(["qubit-time", "photon-number"]),
       protocol=st.sampled_from(["two-step", "unentangled"]),
       trials=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1]),
       seed=st.integers(0, 2**32 - 1))
def test_built_in_targets_mse_is_thread_count_invariant(family, d, kind,
                                                        protocol, trials,
                                                        seed):
    rng = np.random.default_rng(seed)
    theta = tuple(rng.uniform(0.5, 1.5, d))
    fn = (fns.product(d) if family == "product"
          else fns.quadratic(rng.uniform(-1.0, 1.0, (d, d)),
                             rng.uniform(-1.0, 1.0, d)))
    amount = 1e4 if kind == "qubit-time" else 100_000
    cfg = ExperimentConfig(fn, theta, ResourceBudget(kind, amount),
                           protocol=protocol)
    one, two = (estimate_mse(cfg, trials, seed, threads=t) for t in (1, 2))
    assert repr(one) == repr(two)
    assert one.trials == trials and np.isfinite(one.mse)


def signed_block(rng, shape):
    """Signed values over sixty decades, some of them +0.0 and -0.0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    x[rng.random(shape) < 0.05] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    return x


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ufunc=st.sampled_from([np.add, np.subtract, np.multiply]),
       vec_first=st.booleans(), in_place=st.booleans(),
       d=st.integers(1, 40), n=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1))
# fewer rows than one line, and a line count that leaves a tail
@example(ufunc=np.subtract, vec_first=True, in_place=True, d=2, n=100, seed=1)
@example(ufunc=np.multiply, vec_first=False, in_place=False, d=3, n=2999,
         seed=2)
def test_rowwise_gives_the_bits_of_broadcasting(ufunc, vec_first, in_place,
                                               d, n, seed):
    rng = np.random.default_rng(seed)
    block, vec = signed_block(rng, (n, d)), signed_block(rng, d)
    a, b = (vec, block) if vec_first else (block, vec)
    want = ufunc(a, b)
    out = block if in_place else np.empty((n, d))
    got = fns.rowwise(ufunc, a, b, out=out)
    assert got is out and got.tobytes() == want.tobytes()


def random_target(family, d, seed):
    """A product at a point with no zero coordinate, or a random quadratic
    at a random point: either way a gradient that is nonzero."""
    rng = np.random.default_rng(seed)
    if family == "product":
        return fns.product(d), rng.uniform(0.3, 2.0, d) * rng.choice([-1, 1], d)
    a = rng.uniform(-1.0, 1.0, (d, d))
    return fns.quadratic(a, rng.uniform(-1.0, 1.0, d)), rng.uniform(-2.0, 2.0, d)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["product", "quadratic"]), d=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), t_total=st.floats(3.0, 1e8),
       photons=st.integers(10, 10**6), share=st.floats(0.0, 0.999),
       power=st.floats(0.55, 0.95))
def test_every_plan_conserves_its_budget(family, d, seed, t_total, photons,
                                         share, power):
    fn, theta = random_target(family, d, seed)
    model = bounds.point_model(fn, theta)
    time_budget = ResourceBudget("qubit-time", t_total)
    for policy in ("optimal", "numeric", f"fixed:{share * t_total!r}",
                   f"power:1.0,{power!r}"):
        plan = build_plan(model, time_budget, policy)
        # t2 = t - t1 rounds, so the sum may sit one ulp off the total
        assert abs(plan.t1 + plan.t2 - t_total) <= np.spacing(t_total)
        assert 0.0 <= plan.t1 < t_total
    photons = max(photons, 2 * d)
    n1 = d + int(share * (photons - 1 - d))
    for policy in ("optimal", f"fixed:{n1}"):
        plan = build_plan(model, ResourceBudget("photon-number", photons),
                          policy)
        assert plan.n1 + plan.n2 == photons
        assert sum(plan.mode_counts) == plan.n1
        assert len(plan.mode_counts) == d and min(plan.mode_counts) >= 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 50),
       d=st.integers(1, 12), total=st.integers(0, 10**6))
def test_largest_remainder_rows_sum_to_their_total(seed, rows, d, total):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, (rows, d)) * 10.0 ** rng.integers(-8, 8, (rows, d))
    w[rng.random((rows, d)) < 0.3] = 0.0
    w[:, rng.integers(d)] += 1.0  # every row keeps a positive weight
    counts = largest_remainder(w, total)
    assert counts.shape == (rows, d) and counts.min() >= 0
    assert np.all(counts.sum(axis=1) == total)
    assert np.all(counts[w == 0.0] == 0)



def stable_sort_apportion(row, total: int, s: float | None = None) -> list:
    """Largest remainder for one row by Python's stable sort: floor the
    quotas row / s * total, then give the leftover units to the most
    negative floor - quota, equal ones in index order. The row sum s is
    numpy's by default, whose bits the stack path must reproduce on both
    sides of its eight-column switch."""
    s = float(np.sum(row)) if s is None else s
    quota = [float(x) / s * total for x in row]
    counts = [math.floor(q) for q in quota]
    order = sorted(range(len(row)), key=lambda k: counts[k] - quota[k])
    for k in order[:total - sum(counts)]:
        counts[k] += 1
    return counts


# weights drawn from a small pool tie exactly; a zero weight and an entry
# with a whole quota tie at remainder 0
POOL = (0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 7.0, 0.1, 0.3, 1.0 / 3.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5),
       d=st.integers(1, 40),
       total=st.one_of(st.sampled_from(["zero", "one", "d"]),
                       st.integers(0, 10**6)))
def test_largest_remainder_stack_matches_a_stable_sort(seed, rows, d, total):
    rng = np.random.default_rng(seed)
    w = np.where(rng.random((rows, d)) < 0.6, rng.choice(POOL, (rows, d)),
                 rng.uniform(0.0, 1e3, (rows, d)))
    # every stack also holds equal weights, and zeros beside whole quotas
    mixed = np.resize([0.0, 2.0, 0.0, 2.0, 1.0, 0.0, 3.0, 1.0], d)
    w = np.vstack([w, np.ones(d), mixed])
    w[w.sum(axis=1) == 0.0, -1] = 1.0  # every row keeps a positive weight
    total = {"zero": 0, "one": 1, "d": d}.get(total, total)
    counts = largest_remainder(w, total)
    assert counts.dtype == np.dtype(int) and counts.flags.c_contiguous
    assert counts.shape == w.shape
    want = [stable_sort_apportion(row, total) for row in w]
    np.testing.assert_array_equal(counts, want)
    for row, counts_row in zip(w, want):  # a vector is a stack of one
        np.testing.assert_array_equal(largest_remainder(row, total), counts_row)
    # a stack of many rows ranks remainders by pairwise passes up to 24
    # columns, and by argsorts from 25 on, as a few rows always are
    reps = -(-1024 // len(w))
    np.testing.assert_array_equal(largest_remainder(np.tile(w, (reps, 1)),
                                                    total),
                                  np.tile(want, (reps, 1)))


def test_largest_remainder_keeps_numpys_row_sums_from_eight_terms():
    # rows whose left-to-right sum differs from np.sum's pairwise one in the
    # last bit, by enough to move a unit: the stack path must add as np.sum
    third, tenth = 1.0 / 3.0, 0.1
    cases = (([0.5, 0.3, 3.0, 1.0, 1.1, 0.7, 3.0, 0.7, third, 0.7, 0.5, 1.1,
               0.5, third, 1.1, third], 1000),
             ([0.7, 2 * third, 1.0, third, third, 0.7, 2 * third, 1.1, 1.1,
               0.2, tenth, 0.7, third, tenth, 1.1, 0.2, 3.0, 0.5, 0.5], 100))
    for row, total in cases:
        want = stable_sort_apportion(row, total)
        assert stable_sort_apportion(row, total, sum(row)) != want
        np.testing.assert_array_equal(
            largest_remainder(np.array([row] * 3), total), [want] * 3)


SPLITS = (lambda m: al.optimal_time_split(m, 1e4),
          lambda m: al.numeric_time_split(m, 1e4),
          lambda m: al.optimal_photon_split(m, 10**4),
          lambda m: al.fixed_photon_split(m, 10**4, 100))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["product", "quadratic"]),
       theta=st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                      min_size=1, max_size=5))
# all-zero gradients, then ties at indices 0 and 1 and at 1 and 2
@example(family="product", theta=[0.0, 0.0, 1.0])
@example(family="quadratic", theta=[0.0, -0.5])
@example(family="product", theta=[1.0, 1.0, 2.0])
@example(family="product", theta=[2.0, 1.0, -1.0])
def test_zero_and_tied_gradients_on_the_model(family, theta):
    d = len(theta)
    # the quadratic's gradient 2 theta + b vanishes exactly at theta = 0
    fn = (fns.product(d) if family == "product"
          else fns.quadratic(np.eye(d), np.where(np.arange(d) % 2, 1.0, 0.0)))
    model = bounds.point_model(fn, theta)
    g = np.abs(fn.gradient(theta))
    assert model.degenerate == bool(np.all(g == 0.0))
    if model.degenerate:
        assert model.argmax_index == 0
        for split in SPLITS:
            with pytest.raises(bounds.DegenerateGradientError):
                split(model)
        with pytest.raises(bounds.DegenerateGradientError):
            oracles.coordinate_basis(model.gradient)
    else:
        # ties go to the lowest index
        assert model.argmax_index == int(np.flatnonzero(g == g.max())[0])
        assert model.g2 == g.max() ** 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 4), where=st.sampled_from(["hessian", "third"]),
       index=st.integers(0, 15), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       kind=st.sampled_from(["qubit-time", "photon-number"]))
def test_non_finite_derivatives_raise_from_the_model(d, where, index, bad, kind):
    base = fns.product(d)

    def hess(th):
        h = base.hess_rule(th)
        if where == "hessian":
            h.flat[index % h.size] = bad
        return h

    def third(th, j):
        s = base.third_diag_rule(th, j)
        if where == "third":
            s[index % d] = bad
        return s

    fn = fns.from_rules(d, "broken", base.value_rule, None, hess,
                        third, base.grad_batch_rule)
    theta = np.linspace(0.8, 1.4, d)
    with pytest.raises(fns.EvaluationError):
        bounds.point_model(fn, theta)
    # every protocol builds the model, so the separable baseline raises too
    for protocol in ("two-step", "unentangled"):
        cfg = ExperimentConfig(fn, tuple(theta), ResourceBudget(kind, 1000),
                               protocol=protocol)
        with pytest.raises(fns.EvaluationError):
            sweep_resource(cfg, [1000], trials=100, master_seed=1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       ulps=st.integers(0, 3), x=st.floats(1e-3, 1e3),
       signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])))
def test_near_tied_gradients_on_the_model(d, seed, ulps, x, signs):
    # two components of quadratic(I)'s gradient 2 theta sit 0-3 ulps apart,
    # the others well below them
    rng = np.random.default_rng(seed)
    i, j = sorted(rng.choice(d, size=2, replace=False))
    theta = rng.uniform(-0.5, 0.5, size=d) * x
    big = x
    for _ in range(ulps):
        big = np.nextafter(big, np.inf)
    theta[i], theta[j] = (x, big) if rng.random() < 0.5 else (big, x)
    theta[i] *= signs[0]
    theta[j] *= signs[1]
    fn = fns.quadratic(np.eye(d))
    model = bounds.point_model(fn, theta)
    g = fn.gradient(theta)
    assert abs(g[i]) != abs(g[j]) or ulps == 0
    # the larger one wins, the lower index on an exact tie
    want = i if abs(theta[i]) >= abs(theta[j]) else j
    assert model.argmax_index == want
    assert model.g2 == g[want] ** 2
    plan = al.optimal_time_split(model, 1e4)
    assert np.isfinite(plan.t1) and np.isfinite(plan.t2)
    assert abs(plan.t1 + plan.t2 - 1e4) <= np.spacing(1e4)
    plan = al.optimal_photon_split(model, 10**4)
    assert plan.n1 + plan.n2 == 10**4 and sum(plan.mode_counts) == plan.n1


def flag(valid, invalid):
    """A flag value drawn valid two times in three."""
    return (st.sampled_from(valid) | st.sampled_from(valid)
            | st.sampled_from(invalid))


# invalid flag values: zero, negative, non-finite, wrong-length, zero-waist
# and unknown ones
BUDGET = flag([["--time=1e3"], ["--photons=100"]],
              [[], ["--time=0"], ["--time=-5"], ["--time=inf"], ["--time=nan"],
               ["--photons=0"], ["--photons=-3"],
               ["--time=1e3", "--photons=100"]])
FUNCTION = flag(["product:d=2", "linear:3,-4", "quadratic:A=1,0;0,1"],
                ["nope:1", "product:d=0", "linear:nan,1"])
THETA = flag(["1,1", "0,0", "-1,2"], ["1", "1,1,1", "nan,1", "inf,0"])
POLICY = flag(["optimal", "numeric", "power:1,0.7", "fixed:10"],
              ["fixed:-1", "fixed:1e9", "bogus", "power:x"])
PARAMS = flag(["1,0,1", "1,0,-1", "2,0.1,1.5"],
              ["1,0,0", "0,0,1", "1,0", "nan,0,1", "1,0,1,2"])
SENSORS = flag(["-1,0.3,1.2", "0,1,2"], ["-1,0.3,0.3", "-1,0.3"])
TARGET = flag(["0.1", "-0.5"], ["nan", "inf"])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["bounds", "allocate", "interpolate"]),
       function=FUNCTION, theta=THETA, policy=POLICY, params=PARAMS,
       sensors=SENSORS, target=TARGET, budget=BUDGET)
# a zero waist, and the beam's photon plan (about 0.6 s: its mode partition
# runs all 20,000 iterations without converging)
@example(command="interpolate", function="product:d=2", theta="1,1",
         policy="optimal", params="1,0,0", sensors="-1,0.3,1.2",
         target="0.1", budget=["--time=1e3"])
@example(command="interpolate", function="product:d=2", theta="1,1",
         policy="optimal", params="1,0,1", sensors="-1,0.3,1.2",
         target="0.1", budget=["--photons=100"])
def test_cli_exits_0_1_or_2_and_fails_cleanly(command, function, theta, policy,
                                              params, sensors, target, budget):
    if command == "interpolate":
        argv = [command, f"--params={params}", f"--sensors={sensors}",
                f"--target={target}", "--trials=100", "--threads=1",
                "--seed=3"]
    else:
        argv = [command, f"--function={function}", f"--theta={theta}"]
        if command == "allocate":
            argv.append(f"--alloc={policy}")
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        try:
            code = run_command(argv + budget)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert out.getvalue() == ""
        assert "error:" in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert "Warning" not in err.getvalue()
