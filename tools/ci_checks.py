"""Checks of a CLI run's artifacts against plain recomputations; exit 0 when they hold.

    python tools/ci_checks.py beta <run>    # a decompose run: data.txt and model.json
    python tools/ci_checks.py sigma <run>   # an rcs-gcm select run: data.txt and selection.csv

beta recomputes the run's noise precision from data.txt and model.json by
reconstructing the model and subtracting it, and requires model.json's beta,
which decompose took from the core without forming the residual, to agree to
1e-12 relative.  sigma takes the null SD of the td route from the plain loop
of tests/oracles.py (every candidate's P-values, BH and np.histogram) and
requires selection.csv's p_raw column to be, byte for byte, the P-values at
that SD.  Each prints one line.  btucker must be importable (installed, or
src on PYTHONPATH); tests/ is put on the path here for the oracle.
"""

import csv
import sys
from pathlib import Path

import numpy as np

from btucker import decomp, linalg, select, tensor

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402


def beta_check(run: str) -> bool:
    t = tensor.read_tensor(f"{run}/data.txt")
    model, meta = decomp.load_model(f"{run}/model.json")
    beta = linalg.noise_precision(t.values - tensor.reconstruct(model).values)
    print(run, "beta", meta["beta"], "explicit", beta)
    return abs(meta["beta"] - beta) <= 1e-12 * beta


def sigma_check(run: str) -> bool:
    comps = np.array([1])
    u = linalg.svd(select.scored_matrix(tensor.read_matrix(f"{run}/data.txt"), "td"), rank=1).U.T
    grid = select._sigma_grid(u, comps)
    sigma = grid[np.argmin(oracles.reference_sigma_objectives(u, comps, grid))]
    p_raw = ["{:.17g}".format(p) for p in select.td_pvalues(u, sigma, comps)]
    with open(f"{run}/selection.csv", newline="") as fh:
        written = [row["p_raw"] for row in csv.DictReader(fh)]
    print(run, "sigma", sigma, "p_raw identical", written == p_raw)
    return written == p_raw


CHECKS = {"beta": beta_check, "sigma": sigma_check}


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in CHECKS:
        print(f"usage: ci_checks.py {{{','.join(CHECKS)}}} <run>", file=sys.stderr)
        return 2
    return 0 if CHECKS[argv[0]](argv[1]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
