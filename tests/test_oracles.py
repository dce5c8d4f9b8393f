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


def names_taken_from_functions(path: Path) -> tuple[set, set]:
    """The ``qsn.functions`` names a source file refers to, whether imported
    by name or read off the module, and those of them it calls."""
    tree = ast.parse(path.read_text())
    aliases, modules = {}, {"qsn.functions"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["qsn" if node.level else "",
                                          node.module]))
            for alias in node.names:
                if base == "qsn.functions":
                    aliases[alias.asname or alias.name] = alias.name
                elif base == "qsn" and alias.name == "functions":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name == "qsn.functions" and alias.asname)

    def named(node):
        if isinstance(node, ast.Name) and node.id in aliases:
            return aliases[node.id]
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules:
            return node.attr
        return None

    used = set(aliases.values()) | {named(n) for n in ast.walk(tree)}
    called = {named(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    return used - {None}, called - {None}


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

    # an oracle builds no simulator function to probe with, and reads no
    # private helper of the module it judges
    used, called = names_taken_from_functions(SRC / "oracles.py")
    assert "AnalyticFunction" not in called
    assert [n for n in used if n.startswith("_")] == []

    # a fresh interpreter: importing qsn loads neither the oracles nor scipy
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsn; print(sorted(m for m in sys.modules if m == "
         "'qsn.oracles' or m.split('.')[0] == 'scipy'))"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# Names that src/qsn defines for its users rather than for itself: the
# documented library API, and the GHZ schedule criterion 4 checks.
LIBRARY_ONLY = {"load_records", "fit_scaling_exponent", "GHZSpec",
                "GHZSpec.durations"}


def test_the_simulator_defines_nothing_only_tests_reach():
    # every function, class and method outside the oracle layer is named
    # somewhere in src/qsn, as a name, an attribute or an import
    used, defined = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
        if path.name == "oracles.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [f"{node.name}.{m.name}" for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("__")]
    assert len(defined) > 100
    unused = {n for n in defined if n.rsplit(".", 1)[-1] not in used}
    assert unused == LIBRARY_ONLY
