import dataclasses
import tracemalloc

import numpy as np
import pytest

from qsn import allocation as al, bounds, functions as fns
from qsn import experiment as ex, interpolation as ip, oracles


def test_product_derivatives_at_ones():
    f = fns.product(2)
    th = [1.0, 1.0]
    assert f.value(th) == 1.0
    np.testing.assert_allclose(f.gradient(th), [1.0, 1.0])
    np.testing.assert_allclose(f.hessian(th), [[0.0, 1.0], [1.0, 0.0]])
    for j in range(2):
        np.testing.assert_allclose(f.third_diag_slice(th, j), np.zeros(2))


def test_linear_derivatives():
    f = fns.linear([3.0, 4.0])
    th = [0.2, -1.7]
    np.testing.assert_allclose(f.gradient(th), [3.0, 4.0])
    np.testing.assert_allclose(f.hessian(th), np.zeros((2, 2)))
    assert f.value(th) == pytest.approx(3 * 0.2 - 4 * 1.7)


def test_quadratic_value_gradient_hessian():
    a = np.array([[1.0, 2.0], [0.0, -1.0]])
    b = np.array([0.5, 0.5])
    f = fns.quadratic(a, b)
    th = np.array([1.0, -2.0])
    assert f.value(th) == pytest.approx(th @ a @ th + b @ th)
    np.testing.assert_allclose(f.gradient(th), (a + a.T) @ th + b)
    np.testing.assert_allclose(f.hessian(th), a + a.T)


def test_finite_diff_validate_examples():
    assert oracles.finite_diff_validate(fns.product(2), [1.0, 1.0], 1) < 1e-8
    # second differences of a linear map vanish to rounding, which sits at
    # eps*|f|/h^2: below 1e-8 near the origin, below 1e-6 at generic points
    assert oracles.finite_diff_validate(fns.linear([3.0, 4.0]), [0.0, 0.0], 2) < 1e-8
    assert oracles.finite_diff_validate(fns.linear([3.0, 4.0]), [0.3, 0.1], 2) < 1e-6
    assert oracles.finite_diff_validate(fns.quadratic([[1.0]]), [2.0], 2) < 1e-6
    assert oracles.finite_diff_validate(fns.quadratic([[1.0]]), [2.0], 3) < 1e-6
    with pytest.raises(ValueError, match="order must be 1, 2 or 3"):
        oracles.finite_diff_validate(fns.product(2), [1.0, 1.0], 4)


def test_finite_diff_validate_order_3_matches_exact_third_slices(monkeypatch):
    # value stencils over h^3 = 1e-9 round at about eps |f| / h^3 < 1e-5
    # here; the cubic's exact slices are nonzero, the families' vanish
    built = []
    monkeypatch.setattr(fns.AnalyticFunction, "__post_init__",
                        lambda self: built.append(self.label))
    rng = np.random.default_rng(13)
    families = [fns.linear(rng.normal(size=3)), fns.product(3),
                fns.quadratic(rng.normal(size=(3, 3)), rng.normal(size=3)),
                cubic3(third=True)]
    built.clear()
    for f in families:
        for _ in range(20):
            th = rng.uniform(-1.5, 1.5, size=f.dim)
            assert oracles.finite_diff_validate(f, th, 3) < 1e-5, f.label
    assert built == []
    # a wrong slice is caught: cubic3's f_{1,1,1} = 6 read as 5
    wrong = dataclasses.replace(families[-1], third_diag_rule=lambda th, j:
                                cubic3_slice(j) - (j == 1) * np.eye(3)[1])
    assert oracles.finite_diff_validate(wrong, [0.9, 1.1, -0.7], 3) > 0.99


def test_builtin_families_match_finite_differences_random_points():
    # 100 random points per family: gradient to 1e-6 relative, hessian 1e-4
    rng = np.random.default_rng(11)
    families = [
        fns.linear(rng.normal(size=3)),
        fns.product(3),
        fns.quadratic(rng.normal(size=(3, 3)), rng.normal(size=3)),
    ]
    for f in families:
        for _ in range(100):
            th = rng.uniform(-2.0, 2.0, size=f.dim)
            scale = max(1.0, float(np.max(np.abs(f.gradient(th)))))
            assert oracles.finite_diff_validate(f, th, 1) < 1e-6 * scale
            assert oracles.finite_diff_validate(f, th, 2) < 1e-4 * max(
                1.0, float(np.max(np.abs(f.hessian(th))))
            )


def cubic3_value(th):
    th = np.asarray(th, float)
    x, y, z = th[..., 0], th[..., 1], th[..., 2]
    return x * x * y + y**3 + x * y * z


def cubic3_slice(j: int) -> np.ndarray:
    return np.array([2.0, 6.0, 0.0]) if j == 1 else np.zeros(3)


def cubic3(third: bool = False) -> fns.AnalyticFunction:
    """theta_0^2 theta_1 + theta_1^3 + theta_0 theta_1 theta_2, whose slices
    f_{j,i,i} are (0, 0, 0), (2, 6, 0) and (0, 0, 0); with ``third`` it
    carries that slice rule, else the slices difference its gradient."""
    return fns.from_rules(
        3, "cubic3", cubic3_value,
        grad_rule=lambda th: np.array([2 * th[0] * th[1] + th[1] * th[2],
                                       th[0] ** 2 + 3 * th[1] ** 2 + th[0] * th[2],
                                       th[0] * th[1]]),
        hess_rule=lambda th: np.array([[2 * th[1], 2 * th[0] + th[2], th[1]],
                                       [2 * th[0] + th[2], 6 * th[1], th[0]],
                                       [th[1], th[0], 0.0]]),
        third_diag_rule=(lambda th, j: cubic3_slice(j)) if third else None)


def sin_sum(th):
    return np.sin(np.asarray(th, float)).sum(axis=-1)


def test_value_stencil_third_slice_matches_exact_rules():
    # differencing an exact gradient gives the slice to about 1e-7; the
    # oracle's value stencil, about 1e-7 to 1e-6 here
    f_exact = fns.product(3)
    th = [0.9, 1.1, -0.7]
    for j in range(3):
        np.testing.assert_allclose(
            oracles.fd_third_slice(f_exact.value_rule, th, j),
            f_exact.third_diag_slice(th, j), atol=1e-5)
        np.testing.assert_allclose(f_exact.third_diag_slice(th, j), np.zeros(3))
        np.testing.assert_allclose(cubic3().third_diag_slice(th, j),
                                   cubic3_slice(j), atol=1e-6)
        np.testing.assert_allclose(oracles.fd_third_slice(cubic3_value, th, j),
                                   cubic3_slice(j), atol=1e-5)
        # f_{j,i,i} = -cos(theta_j) delta_ij
        np.testing.assert_allclose(oracles.fd_third_slice(sin_sum, th, j),
                                   -np.cos(th[j]) * np.eye(3)[j], atol=1e-5)


@pytest.mark.parametrize("rules, derivative, rows", [
    ("value", "third", 4 * 3 + 2),
    ("value", "hessian", 2 * 3 * 3 + 1),
    ("gradient", "hessian", 2 * 3),
    ("gradient", "third", 2 * 3 + 1),
])
def test_value_only_third_slice_is_one_batched_call(rules, derivative, rows):
    # every finite-difference derivative evaluates its whole stencil in one
    # batched call of the rule it differences
    calls = []

    def counted(rule):
        def batch(th):
            th = np.asarray(th, float)
            calls.append(th.shape)
            return rule(th)
        return batch

    th = [0.9, 1.1, -0.7]
    if rules == "value":
        # the oracle's value-only stencils
        value = counted(sin_sum)
        if derivative == "third":
            oracles.fd_third_slice(value, th, 2)
        else:
            oracles.fd_hessian(value, th)
    else:
        base = cubic3()
        f = fns.from_rules(3, "cubic3", base.value_rule, base.grad_rule, None,
                           grad_batch_rule=counted(np.vectorize(
                               base.grad_rule, signature="(d)->(d)")))
        if derivative == "third":
            f.third_diag_slice(th, 2)
        else:
            f.hessian(th)
    assert calls == [(rows, 3)]


def test_non_finite_third_slice_raises():
    # f = x0 log x1 at x1 = 1e-4: the gradient stencil steps onto x1 = 0,
    # where x0/x1 is infinite, so the slice, and any prediction built on
    # it, must raise rather than read inf
    def hess(th):
        return np.array([[0.0, 1.0 / th[1]], [1.0 / th[1], -th[0] / th[1] ** 2]])

    def value(th):
        th = np.asarray(th, float)
        return th[..., 0] * np.log(th[..., 1])

    def grad(th):
        return np.array([np.log(th[1]), th[0] / th[1]])

    def third(th, j):
        return np.array([0.0, 2.0 * th[0] / th[1] ** 3 if j else -1.0 / th[1] ** 2])

    theta = np.array([1.0, 1e-4])
    stencil = fns.from_rules(2, "x0 log x1", value, grad, hess)
    ruled = fns.from_rules(2, "x0 log x1", value, grad, hess, third)
    plan = al.fixed_time_split(1e4, 100.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(fns.EvaluationError, match="third derivative"):
            stencil.third_diag_slice(theta, 1)
        with pytest.raises(fns.EvaluationError, match="third derivative"):
            al.predicted_mse(bounds.point_model(stencil, theta), plan)
        with pytest.raises(fns.EvaluationError, match="third derivative"):
            ruled.third_diag_slice([1.0, 0.0], 1)


def test_fd_third_diag_slice_evaluates_the_base_gradient_once():
    # 2d + 1 gradient evaluations: one at theta, two per shifted coordinate
    calls = []
    base = cubic3()
    f = fns.from_rules(3, "counted", base.value_rule,
                       lambda th: calls.append(1) or base.grad_rule(th),
                       base.hess_rule)
    th = [0.9, 1.1, -0.7]
    sl = f.third_diag_slice(th, 1)
    assert len(calls) == 2 * 3 + 1
    assert np.array_equal(sl, base.third_diag_slice(th, 1))


def test_as_params_validation():
    with pytest.raises(ValueError, match="expected 2"):
        fns.as_params([1.0], 2)
    with pytest.raises(fns.EvaluationError, match="index 1"):
        fns.as_params([1.0, np.nan], 2)
    with pytest.raises(ValueError, match="1-D"):
        fns.as_params([[1.0, 2.0]], 2)


def zero_gradients(points):
    return np.zeros(np.shape(points))


def test_a_function_needs_an_exact_gradient_rule():
    with pytest.raises(ValueError, match="value-only needs an exact gradient"):
        fns.AnalyticFunction(dim=2, family="custom", label="value-only",
                             value_rule=sin_sum)
    with pytest.raises(ValueError, match="value-only needs an exact gradient"):
        fns.from_rules(2, "value-only", sin_sum, None, None)


def test_value_error_reports_nonfinite():
    f = fns.from_rules(1, "overflow",
                       lambda th: np.exp(np.asarray(th, float)[..., 0] * 1e6),
                       None, None, grad_batch_rule=zero_gradients)
    with np.errstate(over="ignore"), pytest.raises(fns.EvaluationError):
        f.value([2000.0])


def test_value_rule_of_the_wrong_shape_is_named():
    # a value rule maps (n, d) blocks to (n,) values; there is no per-row
    # fallback to guess at
    f = fns.from_rules(2, "scalar-only", lambda th: np.float64(0.0), None, None,
                       grad_batch_rule=zero_gradients)
    for call in (lambda: f.values(np.zeros((3, 2))), lambda: f.value([0.0, 0.0])):
        with pytest.raises(ValueError, match=r"value rule of scalar-only "
                                             r"returned shape \(\)"):
            call()


def test_gradient_rule_of_the_wrong_shape_is_named():
    # both gradient rules must give one (d,) row per point, as gradients
    # returns them; a (d,) vector for every block is refused, not reshaped
    for f in (fns.from_rules(2, "flat", sin_sum, None, None,
                             grad_batch_rule=lambda p: np.ones(2)),
              fns.from_rules(2, "flat", sin_sum, lambda p: np.ones(3), None)):
        for call in (lambda: f.gradients(np.zeros((3, 2))),
                     lambda: f.gradient([0.5, 0.5])):
            with pytest.raises(ValueError, match=r"gradient rule of flat "
                                                 r"returned shape"):
                call()


def test_builtins_set_only_the_batch_gradient_rule():
    beam = ip.induced_function(ip.gaussian_beam(),
                               ip.SensorLayout((-1.0, 0.3, 1.2), 0.1),
                               (1.0, 0.0, 1.0))
    builtins = [fns.linear([3.0, 4.0]), fns.product(3), fns.quadratic(np.eye(2)),
                beam, *(fn for fn, _ in ex.fom_battery())]
    for f in builtins:
        assert f.grad_rule is None and f.grad_batch_rule is not None, f.label


def test_batch_values_and_gradients_match_scalar():
    rng = np.random.default_rng(17)
    for f in (fns.product(3),
              fns.quadratic(rng.normal(size=(3, 3)), rng.normal(size=3)),
              fns.from_rules(3, "sin-sum", sin_sum, None, None,
                             grad_batch_rule=lambda th: np.cos(th))):
        pts = rng.uniform(-1.5, 1.5, size=(40, 3))
        np.testing.assert_allclose(
            f.values(pts), [f.value(p) for p in pts], rtol=1e-12
        )
        np.testing.assert_allclose(
            f.gradients(pts), [f.gradient(p) for p in pts], rtol=1e-9, atol=1e-12
        )


def test_product_gradient_exact_at_zeros():
    f = fns.product(3)
    np.testing.assert_allclose(f.gradient([0.0, 2.0, 3.0]), [6.0, 0.0, 0.0])
    np.testing.assert_allclose(f.gradient([0.0, 0.0, 3.0]), [0.0, 0.0, 0.0])


def test_from_rules_roundtrip():
    f = fns.from_rules(
        dim=1,
        label="cubic",
        value_rule=lambda th: np.asarray(th, float)[..., 0] ** 3,
        grad_rule=lambda th: np.array([3.0 * th[0] ** 2]),
        hess_rule=lambda th: np.array([[6.0 * th[0]]]),
        third_diag_rule=lambda th, j: np.array([6.0]),
    )
    assert f.family == "custom"
    assert oracles.finite_diff_validate(f, [0.7], 1) < 1e-9
    assert oracles.finite_diff_validate(f, [0.7], 2) < 1e-6
    assert oracles.finite_diff_validate(f, [0.7], 3) < 1e-5
    assert np.array_equal(f.third_diag_slice([0.7], 0), [6.0])
    # the rule agrees with differencing the exact gradient
    fd = fns.from_rules(1, "cubic", f.value_rule, f.grad_rule, f.hess_rule)
    np.testing.assert_allclose(fd.third_diag_slice([0.7], 0), [6.0], atol=1e-6)


def test_hessian_symmetrized_even_for_unsymmetric_rule():
    f = fns.from_rules(
        dim=2,
        label="skew",
        value_rule=lambda th: 0.0,
        grad_rule=lambda th: np.zeros(2),
        hess_rule=lambda th: np.array([[0.0, 1.0], [3.0, 0.0]]),
    )
    np.testing.assert_allclose(f.hessian([0.0, 0.0]), [[0.0, 2.0], [2.0, 0.0]])


# -- vectorized product rules against the loops they replaced -----------------


def loop_product_hessian(theta):
    d = theta.shape[0]
    h = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            mask = np.ones(d, bool)
            mask[[i, j]] = False
            h[i, j] = h[j, i] = float(np.prod(theta[mask]))
    return h


def loop_product_third(theta):
    d = theta.shape[0]
    t = np.zeros((d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                mask = np.ones(d, bool)
                mask[[i, j, k]] = False
                v = float(np.prod(theta[mask]))
                for perm in ((i, j, k), (i, k, j), (j, i, k),
                             (j, k, i), (k, i, j), (k, j, i)):
                    t[perm] = v
    return t


def loop_product_gradients(points):
    n, d = points.shape
    grads = np.ones((n, d))
    if d > 1:
        prefix = np.cumprod(points, axis=1)
        suffix = np.cumprod(points[:, ::-1], axis=1)[:, ::-1]
        grads[:, 1:] *= prefix[:, :-1]
        grads[:, :-1] *= suffix[:, 1:]
    return grads


def signed_points_with_zeros(rng, shape):
    pts = rng.uniform(-1.8, 1.8, size=shape)
    flat = pts.reshape(-1)
    flat[rng.choice(flat.size, size=max(1, flat.size // 7), replace=False)] = 0.0
    return pts


@pytest.mark.parametrize("d", [1, 2, 3, 5, 17, 33])
def test_product_hessian_and_third_rules_bit_equal_to_loops(d):
    rng = np.random.default_rng(100 + d)
    f = fns.product(d)
    points = [rng.uniform(-1.8, 1.8, size=d), signed_points_with_zeros(rng, d),
              np.zeros(d), -np.ones(d)]
    for th in points:
        assert np.array_equal(f.hess_rule(th), loop_product_hessian(th))
        assert np.array_equal(f.hessian(th), loop_product_hessian(th))
        third = loop_product_third(th)
        for j in range(d):
            assert np.array_equal(f.third_diag_slice(th, j),
                                  np.diagonal(third[j]))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 17, 33])
def test_product_value_and_gradient_kernels_bit_equal_to_reductions(d):
    rng = np.random.default_rng(200 + d)
    f = fns.product(d)
    pts = signed_points_with_zeros(rng, (257, d))
    assert np.array_equal(f.values(pts), np.prod(pts, axis=-1))
    assert np.array_equal(f.gradients(pts), loop_product_gradients(pts))
    for p in pts[:5]:
        assert f.value(p) == float(np.prod(p))
        assert np.array_equal(f.gradient(p), loop_product_gradients(p[None, :])[0])
    # the row max of |gradients| that the two-step chunk takes
    assert np.array_equal(fns.fold_columns(np.maximum, np.abs(pts)),
                          np.max(np.abs(pts), axis=1))


def test_product_hessian_memory_stays_bounded():
    # one gather of all d(d-1)/2 pair rows would hold about 36 MB at d = 200
    th = np.random.default_rng(11).uniform(0.5, 1.5, size=200)
    f = fns.product(200)
    tracemalloc.start()
    try:
        h = f.hessian(th)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.array_equal(h, loop_product_hessian(th))


def test_product_diag_slice_needs_no_full_tensor():
    f = fns.product(64)
    th = np.random.default_rng(9).uniform(0.5, 1.5, size=64)
    for j in (0, 31, 63):
        sl = f.third_diag_slice(th, j)
        assert sl.shape == (64,) and np.array_equal(sl, np.zeros(64))
