import numpy as np
import pytest

from qsn import bounds, measurement as ms
from qsn.allocation import fixed_time_split
from qsn.functions import linear
from qsn.protocol import run_two_step_batch


def test_rng_stream_determinism():
    a = ms.RngStream(7, 3).generator().standard_normal(5)
    b = ms.RngStream(7, 3).generator().standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = ms.RngStream(7, 4).generator().standard_normal(5)
    assert np.any(a != c)


def test_rng_stream_substream():
    s = ms.RngStream(11, 2)
    sub = s.substream(5)
    assert sub.seed == 11 and sub.index == (2 << 20) + 5
    with pytest.raises(ValueError):
        s.substream(-1)
    with pytest.raises(ValueError):
        s.substream(2**20)
    with pytest.raises(ValueError):
        ms.RngStream(-1, 0)


def test_sample_param_estimates_examples():
    theta = np.array([0.4, -0.2])
    pinned = ms.sample_param_estimates(theta, [0.0, 0.0], ms.RngStream(1), 1)
    np.testing.assert_array_equal(pinned, theta[None])

    a = ms.sample_param_estimates(theta, [1.0, 2.0], ms.RngStream(3, 9), 1)
    b = ms.sample_param_estimates(theta, [1.0, 2.0], ms.RngStream(3, 9), 1)
    np.testing.assert_array_equal(a, b)

    with pytest.raises(ValueError):
        ms.sample_param_estimates(theta, [-1.0, 0.0], ms.RngStream(1), 1)


def test_sample_param_estimates_moments():
    # standard normal deltas: mean within 4 SE of 0, E[delta^4] within 5% of 3
    n = 10**6
    draws = ms.sample_param_estimates([0.0], [1.0], ms.RngStream(17), size=n)
    assert draws.shape == (n, 1)
    d = draws[:, 0]
    assert abs(d.mean()) < 4.0 / np.sqrt(n)
    assert abs(np.mean(d**4) - 3.0) < 0.15


def entangled_floor(weights, time=None, photons=None):
    """The entangled bound qsn reports for the linear target weights . theta
    (the same at every theta)."""
    model = bounds.point_model(linear(weights), np.zeros(len(weights)))
    if time is not None:
        return bounds.qubit_bounds(model, time).entangled_bound
    return bounds.photon_bounds(model, photons).entangled_bound


def test_ghz_spec_schedules():
    spec = ms.GHZSpec.for_time([3.0, -4.0], 2.0)
    np.testing.assert_allclose(spec.durations, [1.5, 2.0])
    assert spec.time == pytest.approx(2.0)

    spec = ms.GHZSpec.for_photons([1.0, 3.0], 8)
    assert spec.mode_counts == (2, 6)

    with pytest.raises(ValueError):
        ms.GHZSpec.for_time([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        ms.GHZSpec.for_time([1.0, 1.0], 0.0)


def test_ghz_spec_rejects_bad_amounts():
    # the schedule is computed from the weights, so only the amount can be off
    for amount in (0.0, -1.0, np.inf, np.nan):
        for kind in ("qubit-time", "photon-number"):
            with pytest.raises(ValueError, match="amount"):
                ms.GHZSpec((1.0, 2.0), kind, amount)
    with pytest.raises(ValueError, match="whole"):
        ms.GHZSpec.for_photons((1.0, 2.0), 7.5)
    with pytest.raises(ValueError, match="qubit-time"):
        ms.GHZSpec.for_photons((1.0, 2.0), 8).durations
    with pytest.raises(ValueError, match="photon-number"):
        ms.GHZSpec.for_time((1.0, 2.0), 8.0).mode_counts


def test_ghz_spec_accepts_its_own_schedules():
    # 1000 random weight vectors, each scheduled for time and for photons
    rng = np.random.default_rng(53)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        w = rng.uniform(-3.0, 3.0, size=d) * 10.0 ** rng.integers(-3, 4)
        w[rng.random(d) < 0.2] = 0.0
        if np.all(w == 0.0):
            w[0] = 1.0
        theta = rng.uniform(-1.0, 1.0, size=d)
        spec = ms.GHZSpec.for_time(w, float(rng.uniform(0.01, 1e4)))
        assert ms.relative_phase(spec, theta) == pytest.approx(
            ms.phase_scale(spec) * (w @ theta), rel=1e-9, abs=1e-9)
        ms.GHZSpec.for_photons(w, int(rng.integers(1, 10**5)))


def test_relative_phase_matches_scale_times_q():
    spec = ms.GHZSpec.for_time([1.0, -1.0], 2.0)
    th = [0.3, 0.2]
    q = 1.0 * 0.3 - 1.0 * 0.2
    assert ms.relative_phase(spec, th) == pytest.approx(ms.phase_scale(spec) * q)
    assert ms.phase_scale(spec) == pytest.approx(2.0)

    # exact-proportionality photon split keeps the identity exact
    spec = ms.GHZSpec.for_photons([1.0, 3.0], 8)
    th = [0.05, -0.1]
    q = 0.05 - 0.3
    assert ms.relative_phase(spec, th) == pytest.approx(ms.phase_scale(spec) * q)
    assert ms.phase_scale(spec) == pytest.approx(2.0)


def test_parity_fisher_information_example():
    spec = ms.GHZSpec.for_time([3.0, 4.0], 2.0)
    info = ms.parity_fisher_information(spec, [0.05, 0.02])
    assert info == pytest.approx(0.25, rel=1e-6)
    # the inverse of the entangled bound reported for 3 x1 + 4 x2
    var = entangled_floor([3.0, 4.0], time=2.0)
    assert info == pytest.approx(1.0 / var, rel=1e-6)


def test_parity_fisher_information_random_and_phase_free():
    # FI = (t/max|alpha|)^2 independent of theta, 1e-6 relative
    rng = np.random.default_rng(43)
    done = 0
    while done < 20:
        d = int(rng.integers(1, 5))
        alpha = rng.uniform(-2.0, 2.0, size=d)
        if np.max(np.abs(alpha)) < 0.1:
            continue
        theta = rng.uniform(-0.5, 0.5, size=d)
        t = float(rng.uniform(0.5, 3.0))
        spec = ms.GHZSpec.for_time(alpha, t)
        phi = ms.relative_phase(spec, theta)
        if abs(np.cos(phi)) > 0.95:
            continue
        expected = (t / np.max(np.abs(alpha))) ** 2
        info = ms.parity_fisher_information(spec, theta)
        assert info == pytest.approx(expected, rel=1e-6)
        done += 1


def test_lincomb_estimate_statistics():
    # the two-step runner's linear-combination draw: a linear target under a
    # step-1-free plan is estimated by the combination alone, so over 1e6
    # draws the sample variance sits within 1% of the floor, mean unbiased
    n = 10**6
    f = linear([3.0, 4.0])
    theta = np.array([0.2, -0.5])
    draws = run_two_step_batch(f, theta, fixed_time_split(10.0, 0.0),
                               ms.RngStream(19), n)
    q = 3.0 * 0.2 + 4.0 * (-0.5)
    var = entangled_floor([3.0, 4.0], time=10.0)
    assert abs(np.var(draws) - var) < 0.01 * var
    assert abs(draws.mean() - q) < 5 * np.sqrt(var / n)

    # consistency: enormous budget collapses the draw onto the target
    tight = run_two_step_batch(f, theta, fixed_time_split(1e9, 0.0),
                               ms.RngStream(2), 1)
    assert tight[0] == pytest.approx(q, abs=1e-7)


@pytest.mark.parametrize("weights, photons, info", [
    ((1.0, 3.0), 8, 4.0), ((1.0, -3.0), 8, 4.0), ((2.0, -1.0, 1.0), 12, 9.0),
    ((0.5, 0.5, -1.0, 2.0), 40, 100.0),
])
def test_photon_schedule_reaches_the_lincomb_floor(weights, photons, info):
    # where N |w| / |w|_1 is a whole vector the mode counts are exact, and
    # the GHZ schedule's Fisher information is the inverse of the photon
    # bound reported for w . theta, the floor step 2 is drawn at
    spec = ms.GHZSpec.for_photons(weights, photons)
    theta = np.linspace(0.1, 0.4, len(weights))
    floor = entangled_floor(weights, photons=photons)
    assert 1.0 / floor == pytest.approx(info)
    assert ms.parity_fisher_information(spec, theta) == pytest.approx(
        1.0 / floor, rel=1e-6)


def test_largest_remainder_examples():
    np.testing.assert_array_equal(ms.largest_remainder([1.0, 3.0], 8), [2, 6])
    np.testing.assert_array_equal(ms.largest_remainder([1.0, 1.0, 1.0], 10), [4, 3, 3])
    np.testing.assert_array_equal(ms.photon_mode_counts([1.0, 0.0], 5), [5, 0])
    np.testing.assert_array_equal(ms.photon_mode_counts([-1.0, 3.0], 8), [2, 6])
    np.testing.assert_array_equal(ms.largest_remainder([0.0, 0.0], 0), [0, 0])
    with pytest.raises(ValueError):
        ms.largest_remainder([0.0, 0.0], 3)
    with pytest.raises(ValueError):
        ms.largest_remainder([-1.0, 2.0], 3)
    with pytest.raises(ValueError):
        ms.photon_mode_counts([1.0, 1.0], 0)


def test_largest_remainder_battery():
    # 1000 random cases: conservation, zero-weight rule, scale invariance
    rng = np.random.default_rng(47)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        w = rng.uniform(0.0, 5.0, size=d)
        w[rng.random(d) < 0.2] = 0.0
        if w.sum() == 0.0:
            w[0] = 1.0
        total = int(rng.integers(0, 200))
        counts = ms.largest_remainder(w, total)
        assert counts.sum() == total
        assert np.all(counts[w == 0.0] == 0)
        np.testing.assert_array_equal(counts, ms.largest_remainder(w * 7.5, total))


def test_largest_remainder_counts_exactly_up_to_two_to_the_52():
    # floats count whole units exactly below 2**53; above the limit a
    # float leftover could drop units, so such totals are refused
    rng = np.random.default_rng(71)
    w = rng.uniform(0.0, 1.0, (2000, 5))
    w[:, 1] = w[:, 0]  # equal remainders
    for total in (2**52, 2**52 - 1, 3**32):
        counts = ms.largest_remainder(w, total)
        assert all(int(row.sum()) == total for row in counts)
    np.testing.assert_array_equal(ms.largest_remainder([1.0, 1.0], 2**52),
                                  [2**51, 2**51])
    for total in (2**52 + 1, 2**53 + 1):
        with pytest.raises(ValueError, match="at most 2"):
            ms.largest_remainder([1.0, 1.0], total)


def test_largest_remainder_never_writes_into_its_weights():
    # a transposed (d, 1) or (1, n) view is contiguous both ways, so a
    # "contiguous copy" of it can be the caller's memory
    rng = np.random.default_rng(67)
    stack = rng.uniform(0.0, 3.0, (6, 9))
    frozen = stack.copy()
    frozen.flags.writeable = False
    cases = [stack[0].copy(), stack[:1].copy(), stack[:, :1].copy(),
             np.asfortranarray(stack), stack[:, :5].copy(), frozen,
             frozen[2], np.ones(3)]
    for w in cases:
        before = w.copy(order="K")
        counts = ms.largest_remainder(w, 101)
        assert w.tobytes() == before.tobytes()
        assert counts.shape == w.shape and not np.may_share_memory(counts, w)
        np.testing.assert_array_equal(counts, ms.largest_remainder(before, 101))


def test_largest_remainder_rows_match_vector_calls():
    rng = np.random.default_rng(61)
    for d in range(1, 33):
        w = rng.uniform(0.0, 5.0, size=(40, d))
        w[rng.random((40, d)) < 0.2] = 0.0
        w[:5] = rng.integers(0, 3, size=(5, d))  # exact ties
        w[w.sum(axis=1) == 0.0, 0] = 1.0
        for total in (0, 1, d, int(rng.integers(2, 500))):
            rows = ms.largest_remainder(w, total)
            assert rows.shape == w.shape
            assert np.all(rows.sum(axis=1) == total)
            for wi, ci in zip(w, rows):
                np.testing.assert_array_equal(ci, ms.largest_remainder(wi, total))
            # 1,040 rows: pairwise ranking up to 24 columns
            np.testing.assert_array_equal(
                ms.largest_remainder(np.tile(w, (26, 1)), total),
                np.tile(rows, (26, 1)))
    np.testing.assert_array_equal(ms.largest_remainder(np.zeros((3, 2)), 0),
                                  np.zeros((3, 2)))
    # many exact ties: leftover units go to the largest remainders, equal
    # remainders in index order (Python's sort is stable)
    w = rng.integers(1, 4, size=(20, 64)).astype(float)
    for total in rng.integers(65, 400, size=5):
        quota = w / w.sum(axis=1, keepdims=True) * total
        for q, counts in zip(quota, ms.largest_remainder(w, total)):
            want = np.floor(q).astype(int)
            order = sorted(range(q.size), key=lambda i: want[i] - q[i])
            want[order[:total - want.sum()]] += 1
            np.testing.assert_array_equal(counts, want)
    with pytest.raises(ValueError):
        ms.largest_remainder([[1.0, 2.0], [0.0, 0.0]], 3)
    with pytest.raises(ValueError):
        ms.largest_remainder(np.ones((2, 0)), 3)

