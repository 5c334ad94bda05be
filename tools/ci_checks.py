"""Checks of a CLI run's artifacts against plain recomputations; exit 0 when they hold.

    python tools/ci_checks.py beta <run>    # a decompose run: data.txt and model.json
    python tools/ci_checks.py sigma <run>   # an rcs-gcm select run: data.txt and selection.csv
    python tools/ci_checks.py fit <decompose.out> [--newton]   # decompose's stdout
    python tools/ci_checks.py local-max <data> <model.json>   # a decompose run's fit
    python tools/ci_checks.py kernel <data> <model.json>      # a decompose run's fit
    python tools/ci_checks.py tensor {spike,spike-tall,exact,huge} <path>   # writes a T3 file

fit reads the last line that decompose printed, its "key value" pairs, and
requires self_consistent True; with --newton also newton_steps of at least 1,
a fit that finished by the trust region.  local-max builds the dense tangent
Hessian of ||core||^2 at model.json's (U2, U3) (tests/oracles.py) and
requires its largest eigenvalue to be at most 1e3 eps ||core||^2, the trust
region's rounding level: the certified fit is a strict local maximum.  It
prints the point's degenerate flag beside it (the L1-th eigen-gap of A^T A at
or below its noise floor, where the Hessian is undefined).  kernel evaluates
the trust region's kernel, which works on G = X(1)^T X(1), and the reference
kernel of tests/oracles.py, which works on the data, at model.json's (U2, U3):
||core||^2, the gradient and three Hessian products must agree to 1e-13,
relative; the gradient, which is rounding at a fit, relative to the Euclidean
gradient it is projected from.  Where the point is degenerate (as at the
spike fits), the Hessian is undefined and its products are reported as not
measured.
beta recomputes the run's noise precision from data.txt and model.json by
reconstructing the model and subtracting it (tests/oracles.py), and requires
model.json's beta, which decompose took from the core without forming the
residual, to agree to 1e-12 relative.  sigma takes the null SD of the td
route from the plain loop of tests/oracles.py (every candidate's P-values, BH
and np.histogram) and requires selection.csv's p_raw column to be, byte for
byte, the P-values at that SD.  tensor writes one of the workflow's edge-case
tensors: spike and spike-tall, unit normals (10x4x4 and 40x4x4,
default_rng(0)) with entry (0, 0, 0) set to 1e10; exact, an exactly
rank-(2, 2, 2) 30x4x3 tensor; and huge, the 10x4x4 normals times 2^300.
Each prints one line.  btucker must be importable (installed, or
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
    beta = oracles.reference_residual(t, model)[1]
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


def fit_check(out: str, newton: bool) -> bool:
    with open(out) as fh:
        tokens = (fh.read().splitlines() or [""])[-1].split()
    fields = dict(zip(tokens[::2], tokens[1::2]))
    certified = fields.get("self_consistent") == "True"
    steps = int(fields.get("newton_steps", 0))
    print(out, "self_consistent", certified, "newton_steps", steps)
    return certified and (steps >= 1 or not newton)


def local_max_check(data: str, model_path: str) -> bool:
    t = tensor.read_tensor(data)
    model, _ = decomp.load_model(model_path)
    core_sq = float(np.sum(model.core ** 2))
    h, degenerate = oracles.reference_tangent_hessian(t, model)
    lam_max = float(np.linalg.eigvalsh(h)[-1])
    margin = 1e3 * np.finfo(float).eps * core_sq
    print(model_path, "hessian_max_eig", lam_max, "margin", margin, "degenerate", degenerate)
    return lam_max <= margin


def kernel_check(data: str, model_path: str) -> bool:
    t = tensor.read_tensor(data)
    model, _ = decomp.load_model(model_path)
    deviations = oracles.kernel_deviations(t, model.u2, model.u3, model.ranks[0])
    print(model_path, *(f"{name} " + ("not measured (degenerate point)" if value is None
                                      else f"{value:.3g}") for name, value in deviations.items()))
    measured = [deviations[name] for name in ("f", "gradient_e", "hessian")]
    return max(value for value in measured if value is not None) <= 1e-13


def spike(n: int) -> np.ndarray:
    x = np.random.default_rng(0).standard_normal((n, 4, 4))
    x[0, 0, 0] = 1e10
    return x


def exact() -> np.ndarray:
    rng = np.random.default_rng(0)
    q = [np.linalg.qr(rng.standard_normal((d, 2)))[0] for d in (30, 4, 3)]
    return np.einsum("abc,ia,jb,kc->ijk", rng.standard_normal((2, 2, 2)), *q)


CHECKS = {"beta": beta_check, "sigma": sigma_check}
FIT_CHECKS = {"local-max": local_max_check, "kernel": kernel_check}
TENSORS = {
    "spike": lambda: spike(10),
    "spike-tall": lambda: spike(40),
    "exact": exact,
    "huge": lambda: np.random.default_rng(0).standard_normal((10, 4, 4)) * 2.0 ** 300,
}


def main(argv) -> int:
    if len(argv) in (2, 3) and argv[0] == "fit" and argv[2:] in ([], ["--newton"]):
        return 0 if fit_check(argv[1], newton=len(argv) == 3) else 1
    if len(argv) == 3 and argv[0] in FIT_CHECKS:
        return 0 if FIT_CHECKS[argv[0]](argv[1], argv[2]) else 1
    if len(argv) == 3 and argv[0] == "tensor" and argv[1] in TENSORS:
        t = tensor.Tensor3(TENSORS[argv[1]]())
        tensor.write_tensor(t, argv[2])
        print(argv[2], argv[1], "dims", t.dims)
        return 0
    if len(argv) != 2 or argv[0] not in CHECKS:
        print(f"usage: ci_checks.py {{{','.join(CHECKS)}}} <run> | fit <decompose.out> [--newton]"
              f" | {{{','.join(FIT_CHECKS)}}} <data> <model.json>"
              f" | tensor {{{','.join(TENSORS)}}} <path>",
              file=sys.stderr)
        return 2
    return 0 if CHECKS[argv[0]](argv[1]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
