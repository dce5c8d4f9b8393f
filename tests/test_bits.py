"""Bit pins: sha256 digests of the exact outputs of the Monte Carlo paths.

Each digest is taken over the ``repr`` of an output with every array turned
into nested lists of Python floats, whose ``repr`` round-trips, so a digest
moves with any single bit. A change that claims to keep every bit keeps
every digest here; a change that moves bits names the digests it moves.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from qsn import bounds, functions as fns, interpolation as ip, oracles
from qsn.experiment import CHUNK, ExperimentConfig, estimate_mse, fom_battery
from qsn.protocol import ResourceBudget

BEAM = ip.gaussian_beam()
LAYOUT = ip.SensorLayout((-1.0, 0.3, 1.2), 0.1)
TRUE = np.array([1.0, 0.0, 1.0])


def exact(obj):
    """``obj`` with dataclasses as (name, value) tuples and arrays as
    (shape, nested float lists)."""
    if dataclasses.is_dataclass(obj):
        return tuple((f.name, exact(getattr(obj, f.name)))
                     for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return obj.shape, obj.tolist()
    if isinstance(obj, (tuple, list)):
        return tuple(exact(x) for x in obj)
    return obj


def digest(obj) -> str:
    return hashlib.sha256(repr(exact(obj)).encode()).hexdigest()


def target(family: str, d: int):
    theta = 0.8 + 0.05 * np.arange(d)
    if family == "product":
        return fns.product(d), theta
    rng = np.random.default_rng(d)
    return (fns.quadratic(rng.uniform(-1.0, 1.0, (d, d)),
                          rng.uniform(-1.0, 1.0, d)), theta)


# (budget kind, protocol, pilot fraction): the separable baseline's pilot
# stage only applies to photon budgets
RUNS = (("qubit-time", "two-step", None), ("qubit-time", "unentangled", None),
        ("photon-number", "two-step", None),
        ("photon-number", "unentangled", None),
        ("photon-number", "unentangled", 0.1))
AMOUNT = {"qubit-time": 1e3, "photon-number": 20000}


def estimates(family: str, d: int) -> list:
    fn, theta = target(family, d)
    out = []
    for kind, protocol, pilot in RUNS:
        cfg = ExperimentConfig(fn, tuple(theta), ResourceBudget(kind, AMOUNT[kind]),
                               protocol=protocol, pilot_fraction=pilot)
        for trials in (CHUNK - 1, CHUNK + 1):
            out.append(estimate_mse(cfg, trials, master_seed=11, stream_index=d))
    return out


ESTIMATE_DIGESTS = {
    ("product", 1):
        "b71ad1af6085c82a3f2f8cd6fc7c1b8dc514d00159c6751a5aed80df39353698",
    ("product", 2):
        "1e46f17ac8b889e7481dae51bcf6c30e59837f4cdd51fc8417a7f9b8b59fdfe0",
    ("product", 4):
        "9b6c84ce5f4bb3a5b507fdee977a2a1872ee1712ca4bab679df6ef87607d9389",
    ("product", 32):
        "bb98280386fb8cd548845f7f263804c98c39c60c0445f7b0114205e8e542443e",
    ("quadratic", 1):
        "dfd812261e7a77a4531e8a53414e34840774e64a62654c80c0547e849a363312",
    ("quadratic", 2):
        "fc33ca19678bc430522cd89e0645b13e5ac8dfa1fec708e3fe0aed9cc8a86116",
    ("quadratic", 4):
        "31fc290ec57463df810e78fb72d5bc478b4ceeb6a6092112d378087161437d92",
    ("quadratic", 32):
        "90c6cf6692548a1eeaaf35f405e902d2398ba345a8d5bb4ea5930c7e00ebf5be",
}


@pytest.mark.parametrize("family,d", sorted(ESTIMATE_DIGESTS))
def test_estimate_mse_bits(family, d):
    assert digest(estimates(family, d)) == ESTIMATE_DIGESTS[family, d]


INTERPOLATION_DIGESTS = {
    "qubit-time":
        "184f80193193f979abdaf37ebec8a0d7e1867ad16280d794dce33fa4925d3f84",
    "photon-number":
        "790db2839c10cabf416f535b277b7332b5b69887e22623ebcbeb99ba3ffeec67",
}


@pytest.mark.parametrize("kind", sorted(INTERPOLATION_DIGESTS))
@pytest.mark.parametrize("threads", (1, 2))
def test_run_interpolation_bits(kind, threads):
    budget = ResourceBudget(kind, AMOUNT[kind])
    report = ip.run_interpolation(BEAM, TRUE, LAYOUT, budget,
                                  trials=2 * CHUNK + 1, seed=5, threads=threads)
    assert digest(report) == INTERPOLATION_DIGESTS[kind]


def test_induced_point_model_bits():
    fn = ip.induced_function(BEAM, LAYOUT, TRUE)
    model = bounds.point_model(fn, ip.forward_readings(BEAM, TRUE, LAYOUT))
    assert digest(model) == (
        "fa5674240b6562c06592c5b4377073d7b52f4a71a4ac9d8465aac1ede224bf55")


# -- point evaluations ----------------------------------------------------------


POINT_FAMILIES = ("linear", "product", "quadratic", "composite")


def point_target(family: str, d: int):
    rng = np.random.default_rng(100 + d)
    if family == "linear":
        return fns.linear(rng.uniform(-2.0, 2.0, d))
    return target(family, d)[0]


def composite_value(th):
    """A bare value rule, differentiated by the oracle's value-only
    stencils alone."""
    return np.sin(th).sum(axis=-1) + th[..., 0] * th[..., -1]


def point_evaluations(family: str, d: int) -> list:
    """value, gradient, hessian and every third slice at two points; the
    composite family's come from the oracle stencils, the Hessian
    symmetrized as ``AnalyticFunction.hessian`` symmetrizes."""
    fn = None if family == "composite" else point_target(family, d)
    out = []
    for theta in (0.8 + 0.05 * np.arange(d),
                  np.random.default_rng(d).uniform(-1.5, 1.5, d)):
        if fn is None:
            hess = oracles.fd_hessian(composite_value, theta)
            out += [float(composite_value(theta[None])[0]),
                    oracles.fd_gradient(composite_value, theta),
                    0.5 * (hess + hess.T)]
            out += [oracles.fd_third_slice(composite_value, theta, j)
                    for j in range(d)]
            continue
        out += [fn.value(theta), fn.gradient(theta), fn.hessian(theta)]
        out += [fn.third_diag_slice(theta, j) for j in range(d)]
    return out


POINT_DIGESTS = {
    ("linear", 1):
        "5b459f8ac17d604bdfb70de3e7989f32dccd1b6ef2ea2636a0dc560253aa113a",
    ("linear", 2):
        "0a07e01b6082cc6575f595937977edff20a942afde60375f72e29b992e7c613a",
    ("linear", 4):
        "18e1c26747728f3353e4415d78411463a04c41e225f714fdf6e9c07c55761903",
    ("linear", 32):
        "de0519d945d13214e467d0cdf32a35daef10c83989401fd84da2560a3bdae41a",
    ("product", 1):
        "21df26b5332a2c0542060bd12cd2992ffec9ef470485611cb5f944534cd7ce8a",
    ("product", 2):
        "d4e75e79c8c420e6bb2052a24dff7f682db8f15c009d1e3019256c023da2d8df",
    ("product", 4):
        "8995ab8e2e3388ab493aff9d57b944f36d863dd362a0b6b9e613a969698cd93d",
    ("product", 32):
        "2b65ecd27affbe8bc1d03f07282dbf37f77e6f35e3408653f7077b122e9466e9",
    ("quadratic", 1):
        "9a7b46cec3e74cb1574baa8fd9c154945d5427a261d4e51377a4b459fdf7eb5e",
    ("quadratic", 2):
        "1d93ab401ca93f41684aee5214f9b2a4bb47a043ab3ed2aa0612738c959b5985",
    ("quadratic", 4):
        "f71ad80d584fede185f89dfaac1c2463702eb7b5e17946ec30b98aff3c93064e",
    ("quadratic", 32):
        "7501be22e9362974d31264169aa2a6409373b434119298237af4f6a0b016c3c6",
    ("composite", 1):
        "ec199f974ef0d5c1a7b1e9fcb2865aaab368868ae8b733dd3c8015a62c7ce3f1",
    ("composite", 2):
        "36728579304d2eb44dba320e5a184b7c2776ad84bd784105ca286616cdf43d66",
    ("composite", 4):
        "995f38873853978e6cc931435b66a655e59b8134c5698f6bdfbd961c75712bba",
    ("composite", 32):
        "96e2e3800c64034de4c7e31a7c8ae229b4d38e92339453c69b89d3d242ed39c7",
}


@pytest.mark.parametrize("family,d", sorted(POINT_DIGESTS))
def test_point_evaluation_bits(family, d):
    assert digest(point_evaluations(family, d)) == POINT_DIGESTS[family, d]


def battery_gradients() -> list:
    rng = np.random.default_rng(3)
    return [fn.gradient(np.asarray(theta) + rng.normal(0.0, 0.1, len(theta)))
            for fn, theta in fom_battery() for _ in range(4)]


def test_battery_gradient_bits():
    assert digest(battery_gradients()) == (
        "b7cf0b1cdc85c8c4c3cb815560ffe29e424913ba338dfad4bb00e106b81e7f60")


def induced_values() -> list:
    fn = ip.induced_function(BEAM, LAYOUT, TRUE)
    readings = ip.forward_readings(BEAM, TRUE, LAYOUT)
    rng = np.random.default_rng(4)
    return [fn.value(readings + rng.normal(0.0, s, 3))
            for s in (0.0, 1e-3, 1e-2, 1e-1)]


def test_induced_value_bits():
    assert digest(induced_values()) == (
        "d08dfa874235cf65ca47f756a315df646b61b048021ecf8f02f40036a5391487")
