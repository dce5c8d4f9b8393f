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

from qsn import bounds, functions as fns, interpolation as ip
from qsn.experiment import CHUNK, ExperimentConfig, estimate_mse
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
