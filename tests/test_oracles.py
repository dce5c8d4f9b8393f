import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsn
from qsn import oracles

SRC = Path(qsn.__file__).resolve().parent


def test_ghz_even_parity_reads_the_cosine_of_the_summed_phase():
    # only the |1...1> branch carries phase, so p = (1 + cos sum_i phi_i) / 2
    rng = np.random.default_rng(5)
    for d in range(1, oracles.GHZ_MAX_QUBITS + 1):
        phases = rng.uniform(-3.0, 3.0, size=d)
        assert oracles.ghz_even_parity(phases) == pytest.approx(
            (1.0 + np.cos(phases.sum())) / 2.0, abs=1e-12)
    for bad in ([], np.zeros(oracles.GHZ_MAX_QUBITS + 1), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="qubit phases"):
            oracles.ghz_even_parity(bad)


def test_ghz_phase_gradient_is_the_signed_rates():
    rates, signs = np.array([1.5, 2.0, 0.0]), np.array([1.0, -1.0, 1.0])
    v = oracles.ghz_phase_gradient(rates, signs, [0.3, -0.2, 5.0])
    # phi = 1.5 * 0.3 + 2.0 * 0.2 = 0.85, so sin(phi) > 0 and v = +dphi/dtheta
    np.testing.assert_allclose(v, signs * rates, rtol=1e-8, atol=1e-12)
    with pytest.raises(ValueError, match="one sign per rate"):
        oracles.ghz_phase_gradient(rates, signs[:2], [0.3, -0.2, 5.0])
    with pytest.raises(ValueError, match="nonnegative"):
        oracles.ghz_phase_gradient(-rates, signs, [0.3, -0.2, 5.0])
    with pytest.raises(ValueError, match="not all zero"):
        oracles.ghz_phase_gradient(0.0 * rates, signs, [0.3, -0.2, 5.0])
    with pytest.raises(ValueError, match="nearly certain"):
        oracles.ghz_phase_gradient(rates, signs, [0.0, 0.0, 5.0])


def imports_of(path: Path) -> set:
    """Every module a source file names in an import, with each imported
    name also read as a submodule of its package; relative imports resolve
    against ``qsn``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["qsn" if node.level else "",
                                          node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def within(name: str, modules) -> bool:
    return any(name == m or name.startswith(m + ".") for m in modules)


def test_oracle_layer_stays_apart_from_the_simulator():
    allowed = ("__future__", "numpy", "scipy", "qsn.functions")
    strays = [n for n in imports_of(SRC / "oracles.py") if not within(n, allowed)]
    assert strays == [], f"qsn.oracles imports {strays}"
    simulator = sorted(p for p in SRC.glob("*.py") if p.name != "oracles.py")
    assert len(simulator) >= 8
    for path in simulator:
        assert not any(within(n, ["qsn.oracles"]) for n in imports_of(path)), (
            f"{path.name} imports qsn.oracles")

    # a fresh interpreter: importing qsn loads neither the oracles nor scipy
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsn; print(sorted(m for m in sys.modules if m == "
         "'qsn.oracles' or m.split('.')[0] == 'scipy'))"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
