"""Mutation audit: which checks catch a one-line defect in ``src/qsn``.

Each mutant is a (file, old text, new text) triple that plants one defect.
``python tests/mutants.py`` copies the repository to a temporary directory,
runs the tier-1 suite there once unmutated and then once per mutant, and
writes ``MUTANTS.json`` at the repository root. For each mutant it names
the acceptance criteria, the non-pin tests and the pins that failed.

Pins are tests that compare output bits or exact floats with frozen values:
every test in ``tests/test_bits.py``, the ``*_pinned`` CLI tests and the
tests in ``EXACT_FLOAT_TESTS``. Any change to the Monte Carlo output fails
them, right or wrong, so a mutant that only pins catch is caught by nothing
that can judge a new output. Such a mutant needs a non-pin test.

The script fails before running anything if a mutant's old text does not
occur exactly once in its file, and after the runs if the unmutated suite
fails or if no non-pin check catches some mutant. Not
collected by pytest. With tier-1 at about 20 s on 2 vCPUs, the audit takes
about 4 minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (id, what the defect is, file, old text, new text)
MUTANTS = [
    ("M1", "every GHZ sensor runs the full time",
     "src/qsn/measurement.py",
     "self.budget.amount * (w / w.max())",
     "self.budget.amount * np.ones_like(w)"),
    ("M3", "step-2 noise from the true gradient, no tie inflation",
     "src/qsn/protocol.py",
     "noise_sd = wmax / plan.t2",
     "noise_sd = np.max(np.abs(fn.gradient(theta_true))) / plan.t2"),
    ("M4", "photon step-2 noise with the 2-norm",
     "src/qsn/protocol.py",
     "noise_sd = np.sum(abs_w, axis=1) / plan.n2",
     "noise_sd = np.sqrt(np.sum(abs_w**2, axis=1)) / plan.n2"),
    ("M5", "PARTITION_MAX_ITER = 3",
     "src/qsn/allocation.py",
     "PARTITION_MAX_ITER = 20000",
     "PARTITION_MAX_ITER = 3"),
    ("M6", "separable photon split by |g|^(1/2), not |g|^(2/3)",
     "src/qsn/protocol.py",
     "np.power(weights, 2.0 / 3.0, out=weights)",
     "np.power(weights, 0.5, out=weights)"),
    ("M7", "estimate_mse reports twice its SE",
     "src/qsn/experiment.py",
     "se=math.sqrt(var_e2 / trials)",
     "se=2.0 * math.sqrt(var_e2 / trials)"),
    ("M9", "photon predicted_mse drops the curvature term",
     "src/qsn/allocation.py",
     "return model.one_norm_sq / plan.n2**2 + float(var @ model.coeffs @ var)",
     "return model.one_norm_sq / plan.n2**2"),
    ("M10", "pilot photons floored and less one, not rounded",
     "src/qsn/protocol.py",
     "n_pilot = max(dim, int(round(pilot_fraction * n_total)))",
     "n_pilot = max(dim, int(pilot_fraction * n_total) - 1)"),
    ("M11", "TINY_GRADIENT_RTOL 1e-12 -> 1e-6",
     "src/qsn/protocol.py",
     "TINY_GRADIENT_RTOL = 1e-12",
     "TINY_GRADIENT_RTOL = 1e-6"),
    ("M12", "a photon plan accepts zero step-1 mode counts",
     "src/qsn/allocation.py",
     "min(self.mode_counts) <= 0",
     "min(self.mode_counts) < 0"),
]

# Tests outside tests/test_bits.py and the *_pinned CLI tests that compare
# Monte Carlo output with frozen exact floats.
EXACT_FLOAT_TESTS = (
    "tests/test_interpolation.py::test_run_interpolation_resolves_its_plan_once",
    "tests/test_protocol.py::test_pilot_estimate_mse_thread_invariant_and_pinned",
)

CRITERION = re.compile(r"tests/test_acceptance\.py::test_criterion_(\d+)_")


def is_pin(test: str) -> bool:
    return (test.startswith("tests/test_bits.py::")
            or (test.startswith("tests/test_cli.py::")
                and test.split("::")[1].split("[")[0].endswith("_pinned"))
            or test in EXACT_FLOAT_TESTS)


def check_mutants() -> None:
    """Refuse the table unless every old text occurs exactly once."""
    bad = []
    for ident, _, path, old, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            bad.append(f"{ident}: {old!r} occurs {count} times in {path}")
    if bad:
        sys.exit("mutant table out of date:\n" + "\n".join(bad))


def run_tier1(tree: Path) -> tuple[int, list]:
    """Run tier-1 in ``tree``; the number of tests and the failed ids."""
    report = tree / "tier1.xml"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--tb=no", "-o",
         "junit_family=xunit1", f"--junitxml={report}"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, timeout=1800)
    cases = ET.parse(report).getroot().iter("testcase")
    failed, total = [], 0
    for case in cases:
        total += 1
        if case.find("failure") is not None or case.find("error") is not None:
            module = case.get("classname").replace(".", "/")
            failed.append(f"{module}.py::{case.get('name')}")
    return total, sorted(failed)


def classify(failed: list) -> dict:
    criteria = sorted({int(m.group(1)) for m in map(CRITERION.match, failed)
                       if m})
    pins = [t for t in failed if is_pin(t)]
    non_pin = [t for t in failed if not is_pin(t) and not CRITERION.match(t)]
    return {"criteria": criteria, "non_pin_tests": non_pin, "pins": pins}


def main() -> int:
    check_mutants()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out",
            "MUTANTS.json"))
        total, failed = run_tier1(tree)
        if failed:
            sys.exit("the unmutated suite fails:\n" + "\n".join(failed))
        rows, uncaught = [], []
        for ident, what, path, old, new in MUTANTS:
            target = tree / path
            source = target.read_text()
            target.write_text(source.replace(old, new))
            try:
                _, failed = run_tier1(tree)
            finally:
                target.write_text(source)
            row = {"id": ident, "defect": what, "file": path, "old": old,
                   "new": new, **classify(failed)}
            if not (row["criteria"] or row["non_pin_tests"]):
                uncaught.append(ident)
            rows.append(row)
            print(f"{ident}: criteria {row['criteria']}, "
                  f"{len(row['non_pin_tests'])} non-pin, "
                  f"{len(row['pins'])} pins", flush=True)
    out = {"tier1_tests": total, "pins": "tests/test_bits.py, the *_pinned "
           "CLI tests and " + ", ".join(EXACT_FLOAT_TESTS), "mutants": rows}
    (ROOT / "MUTANTS.json").write_text(json.dumps(out, indent=1) + "\n")
    if uncaught:
        print("no non-pin check catches " + ", ".join(uncaught),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
