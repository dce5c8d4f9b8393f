"""The references checked against each other, with no qsn involved."""

import math

import numpy as np

import reference as ref

# Sampling comparisons use z against the combined standard error; 4 keeps a
# correct reference from failing by chance while a wrong term (O(s) or more)
# lands at tens of standard errors.
Z_TEST = 4.0

BEAM_PARAMS = (1.0, 0.0, 1.0)
BEAM_LOCATIONS = (-1.0, 0.3, 1.2)
BEAM_TARGET = 0.1


def _z(a, a_se, b, b_se):
    return (a - b) / math.sqrt(a_se**2 + b_se**2)


def _beam_readings(params=BEAM_PARAMS):
    return np.array([ref.beam_field(params, x) for x in BEAM_LOCATIONS])


def test_pair_closed_form_matches_sampling():
    s = 0.05
    gen = ref.reference_generator(11, 0)
    mean, se = ref.max_grad_sq_product_unit(2, s, gen, 200_000)
    assert abs(_z(mean, se, ref.max_grad_sq_pair(s), 0.0)) < Z_TEST
    # the 2s/sqrt(pi) term is what the check must be able to see
    assert abs(_z(mean, se, 1.0 + s * s, 0.0)) > 10 * Z_TEST


def test_step1_residual_matches_direct_simulation():
    d, s = 4, 0.1
    gen = ref.reference_generator(11, 1)
    pts = 1.0 + s * gen.standard_normal((200_000, d))
    grads = np.stack([np.prod(np.delete(pts, i, axis=1), axis=1)
                      for i in range(d)], axis=1)
    r = np.prod(pts, axis=1) + np.sum(grads * (1.0 - pts), axis=1) - 1.0
    se = np.std(r * r) / math.sqrt(r.size)
    want = ref.step1_residual_product_unit(d, s)
    assert abs(_z(np.mean(r * r), se, want, 0.0)) < Z_TEST


def test_unentangled_product_closed_form():
    assert ref.unentangled_product_unit(2, 10.0) == math.expm1(2 * math.log1p(0.01))
    assert math.isclose(ref.unentangled_product_unit(3, 2.0), 1.25**3 - 1.0)


def test_lagrange_monomial_matches_direct_inversion():
    """Invert the beam formula for (a, x0, w) from three readings and
    evaluate it at the target; the monomial must give the same field."""
    weights = ref.lagrange_weights(BEAM_LOCATIONS, BEAM_TARGET)
    gen = ref.reference_generator(11, 2)
    x = np.asarray(BEAM_LOCATIONS)
    for _ in range(20):
        params = (gen.uniform(0.5, 2.0), gen.uniform(-0.5, 0.5),
                  gen.uniform(0.7, 1.5))
        readings = _beam_readings(params)
        # log F = log a - 2 (x - x0)^2 / w^2 = alpha + beta x + gamma x^2
        alpha, beta, gamma = np.linalg.solve(np.vander(x, 3, increasing=True),
                                             np.log(readings))
        w = math.sqrt(-2.0 / gamma)
        x0 = beta * w * w / 4.0
        a = math.exp(alpha + 2.0 * x0 * x0 / (w * w))
        direct = ref.beam_field((a, x0, w), BEAM_TARGET)
        assert math.isclose(float(ref.beam_monomial(readings, weights)), direct,
                            rel_tol=1e-12)
    assert math.isclose(float(ref.beam_monomial(_beam_readings(), weights)),
                        math.exp(-2.0 * BEAM_TARGET**2), rel_tol=1e-14)


def test_beam_quadrature_matches_sampling():
    theta = _beam_readings()
    weights = ref.lagrange_weights(BEAM_LOCATIONS, BEAM_TARGET)
    sigma = 1e-3
    quad = ref.beam_unentangled(theta, weights, sigma, 16)
    assert math.isclose(quad, ref.beam_unentangled(theta, weights, sigma, 32),
                        rel_tol=1e-10)
    gen = ref.reference_generator(11, 3)
    g0 = float(ref.beam_monomial(theta, weights))
    vals = (ref.beam_monomial(theta + sigma * gen.standard_normal((200_000, 3)),
                              weights) - g0) ** 2
    se = np.std(vals) / math.sqrt(vals.size)
    assert abs(_z(np.mean(vals), se, quad, 0.0)) < Z_TEST


def test_beam_twostep_matches_plain_formula():
    """The cancellation-free residual equals the textbook one where rounding
    is harmless, and the reference averages r^2 + max G_i^2 / t2^2."""
    theta = _beam_readings()
    weights = ref.lagrange_weights(BEAM_LOCATIONS, BEAM_TARGET)
    gen = ref.reference_generator(11, 4)
    delta = 0.01 * gen.standard_normal((1000, 3))
    r, grads = ref._beam_residual_and_grads(theta, weights, delta)
    pts = theta + delta
    plain_g = ref.beam_monomial(pts, weights)
    plain_grads = plain_g[:, None] * weights / pts
    plain_r = (plain_g - np.sum(plain_grads * delta, axis=1)
               - ref.beam_monomial(theta, weights))
    np.testing.assert_allclose(grads, plain_grads, rtol=1e-12)
    np.testing.assert_allclose(r, plain_r, rtol=1e-6, atol=1e-14)

    t1, t2 = 100.0, 900.0
    mean, se = ref.beam_twostep(theta, weights, t1, t2,
                                ref.reference_generator(11, 5), 100_000)
    d = gen.standard_normal((100_000, 3)) / t1
    r, grads = ref._beam_residual_and_grads(theta, weights, d)
    vals = r * r + np.max(grads**2, axis=1) / t2**2
    assert abs(_z(mean, se, np.mean(vals), np.std(vals) / math.sqrt(vals.size))) < Z_TEST


def test_pilot_reference_matches_integer_apportionment():
    """Continuous apportionment of the post-pilot photons stays within 1e-4
    relative of largest-remainder integers at the workload's sizes."""
    theta = np.array([0.8, 1.0, 1.3, 1.6])
    photons, n_pilot = 100_000, 10_000
    share = np.abs(ref.product_gradients(theta[None, :])[0]) ** (2.0 / 3.0)
    quota = (photons - n_pilot) * share / share.sum()
    counts = np.floor(quota)
    counts[np.argsort(-(quota - counts), kind="stable")[: int(round(
        photons - n_pilot - counts.sum()))]] += 1
    exact = lambda n: np.prod(theta**2 + 1.0 / n**2) - np.prod(theta**2)
    assert math.isclose(exact(quota), exact(counts), rel_tol=1e-4)
    assert list(ref.uniform_counts(10, 4)) == [3, 3, 2, 2]


def test_reference_generator_is_keyed_by_seed_and_tag():
    draw = lambda seed, tag: ref.reference_generator(seed, tag).standard_normal(4)
    np.testing.assert_array_equal(draw(7, 1), draw(7, 1))
    assert not np.array_equal(draw(7, 1), draw(7, 2))
    assert not np.array_equal(draw(7, 1), draw(8, 1))
