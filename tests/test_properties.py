"""Property tests, bounded so that the suite stays fast."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsn import functions as fns, interpolation as ip
from qsn.experiment import CHUNK, ExperimentConfig, estimate_mse
from qsn.protocol import ResourceBudget

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
