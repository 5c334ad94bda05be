"""The benchmark's workloads: fixed op sets over the btucker pipeline, each with its output check.

Every call into btucker goes through a module attribute (``cli.run_member``
style, never ``from btucker.cli import ...``), so the tracer's wrappers see it.
The checks read the program's outputs with numpy and the csv module, not with
btucker, and run outside the timed op.

Block members are the acceptance suite's seeds 1000, 1001, ...  HOOI needs
840 to 3066 iterations on seeds 1000-1003, so a member's cost is a property
of its seed; the block workloads therefore always run the same members, and
the run seed only rotates the order in which the ops visit them.  The matrix
workload's cost does not depend on the data, so there the seed picks the data.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from btucker import cli, decomp, select

BLOCK_SEED = 1000          # acceptance base seeds
SINUSOID_SEED = 4000
GCM_SEED_OFFSET = 1000     # rcs-gcm member seed = sinusoid seed + 1000 (5000 by default)
DEFAULT_SEEDS = {"block-fit": BLOCK_SEED, "block-certify": BLOCK_SEED, "matrix-cli": SINUSOID_SEED}

BLOCK_FIT_MEMBERS = 4      # seeds 1000-1003: 840-3066 HOOI iterations
BLOCK_CERTIFY_MEMBERS = 2  # seeds 1000-1001, fitted in set-up

# Gates, as in the acceptance suite.
SELF_CONSISTENCY_TOL = 1e-6
BTUD_REFIT = {"alpha": 0.0, "max_sweeps": 5, "tol": 1e-6}
BLOCK_MAX_FP = 1           # synthetic-block: TP >= N1 - 1, FP <= 1
SINUSOID_MAX_FP = 2        # sinusoid: TP >= N1 - 1 (999 of 1000), FP <= 2


@dataclass(frozen=True)
class Op:
    """One closed-loop request: `run` is timed, `check` returns None or why the output is wrong."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def warm_blas() -> None:
    """Touch the BLAS/LAPACK paths the pipeline uses, so their lazy set-up is not in an op."""
    a = np.random.default_rng(0).standard_normal((200, 60))
    (a.T @ a).sum()
    np.linalg.eigh(a.T @ a)
    np.linalg.svd(a, full_matrices=False)


def rotated(items: list, seed: int, base: int) -> list:
    start = (seed - base) % len(items)
    return items[start:] + items[:start]


def selection_failure(selected: np.ndarray, truth: np.ndarray, max_fp: int) -> str | None:
    """None when the selection finds all but at most one true feature and at most max_fp others."""
    if selected.shape != truth.shape:
        return f"selection has {selected.size} features, truth {truth.size}"
    tp = int(np.sum(selected & truth))
    fp = int(np.sum(selected & ~truth))
    if tp < int(truth.sum()) - 1 or fp > max_fp:
        return f"selection TP {tp} of {int(truth.sum())}, FP {fp} (bounds TP >= N1-1, FP <= {max_fp})"
    return None


def _block_config(generator: dict | None, ranks: tuple | None):
    return cli.build_config("synthetic-block", overrides={"generator": generator, "ranks": ranks})


@dataclass
class BlockOutput:
    fit: decomp.FitReport
    consistent: bool
    deviation: float
    refit: decomp.FitReport
    selected: np.ndarray
    truth: np.ndarray


def check_block(out: BlockOutput) -> str | None:
    if not out.fit.converged:
        return f"HOOI did not converge in {out.fit.sweeps} iterations"
    if not out.consistent or not out.deviation <= SELF_CONSISTENCY_TOL:
        return f"self-consistency deviation {out.deviation:.3e} > {SELF_CONSISTENCY_TOL}"
    if not (out.refit.converged and out.refit.sweeps <= 1):
        return f"btud refit took {out.refit.sweeps} sweeps (converged {out.refit.converged})"
    return selection_failure(out.selected, out.truth, BLOCK_MAX_FP)


class BlockFit:
    """Each op is one synthetic-block member end to end, plus the acceptance suite's btud refit.

    The op runs the in-memory pipeline that ``cli.run_member`` is made of
    (``run_member`` does not return the model the refit starts from).
    """

    name = "block-fit"
    min_passes = 1

    def __init__(self, seed: int, generator: dict | None = None, ranks: tuple | None = None,
                 members: int = BLOCK_FIT_MEMBERS):
        self.seeds = rotated([BLOCK_SEED + e for e in range(members)], seed, BLOCK_SEED)
        self.generator, self.ranks = generator, ranks
        self.cfg = None

    def setup(self) -> None:
        self.cfg = _block_config(self.generator, self.ranks)
        warm_blas()

    def ops(self) -> list[Op]:
        return [Op(f"block {s}", lambda s=s: self._member(s), check_block) for s in self.seeds]

    def _member(self, seed: int) -> BlockOutput:
        cfg = self.cfg
        _, t, truth = cli.generate_data(cfg, seed)
        model, report, beta = cli.decompose_tensor(t, cfg)
        result = cli.select_from_tensor(t, model, cfg, beta=beta)
        _, _, refit = decomp.btud_fit(t, model, **BTUD_REFIT)
        return BlockOutput(report, report.self_consistent, report.max_mode_deviation,
                           refit, result.selected, truth)


@dataclass
class FittedMember:
    seed: int
    tensor: object
    truth: np.ndarray
    model: decomp.TuckerModel
    fit: decomp.FitReport
    beta: float


class BlockCertify:
    """Set-up fits HOOI fixed points; each op certifies one, refits it and selects from it."""

    name = "block-certify"
    min_passes = 1

    def __init__(self, seed: int, generator: dict | None = None, ranks: tuple | None = None,
                 members: int = BLOCK_CERTIFY_MEMBERS):
        self.seeds = rotated([BLOCK_SEED + e for e in range(members)], seed, BLOCK_SEED)
        self.generator, self.ranks = generator, ranks
        self.cfg = None
        self.members: list[FittedMember] = []

    def setup(self) -> None:
        cfg = self.cfg = _block_config(self.generator, self.ranks)
        warm_blas()
        members = []
        for seed in self.seeds:
            _, t, truth = cli.generate_data(cfg, seed)
            model, fit = decomp.hooi(t, cfg.ranks, max_iter=cfg.max_iter, tol=cfg.tol,
                                     factor_tol=cfg.factor_tol)
            members.append(FittedMember(seed, t, truth, model, fit, decomp.estimate_beta(t, model)))
        self.members = members

    def ops(self) -> list[Op]:
        return [Op(f"certify {m.seed}", lambda m=m: self._certify(m), check_block)
                for m in self.members]

    def _certify(self, m: FittedMember) -> BlockOutput:
        cfg = self.cfg
        check = decomp.self_consistency_check(m.tensor, m.model, alpha=0.0, beta=m.beta,
                                              tol=SELF_CONSISTENCY_TOL)
        _, _, refit = decomp.btud_fit(m.tensor, m.model, **BTUD_REFIT)
        means, cov = decomp.posterior_stats(m.tensor, m.model, 1, alpha=0.0, beta=m.beta)
        comps = cfg.components
        stat = select.btud_statistic(means, cov, comps, calibrate=True)
        result = select.select_features(select.chi2_sf(stat, dof=len(comps)),
                                        threshold=cfg.threshold, statistic=stat, dof=len(comps))
        deviation = max(check.max_mode_deviation, check.core_deviation)
        return BlockOutput(m.fit, check.self_consistent, deviation, refit,
                           result.selected, m.truth)


# ---------------------------------------------------------------------------
# matrix-cli: sinusoid and rcs-gcm members through in-process cli.main
# ---------------------------------------------------------------------------

@dataclass
class CliOutput:
    experiment: str
    run_dir: Path
    codes: list
    stderr: str
    generator: dict


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_m2(path: Path) -> np.ndarray:
    with open(path) as fh:
        tag, rows, cols = fh.readline().split()
        values = np.array(fh.read().split(), dtype=np.float64)
    if tag != "M2" or values.size != int(rows) * int(cols):
        raise ValueError(f"malformed M2 file {path}")
    return values.reshape(int(rows), int(cols))


def _selection_and_report(out: CliOutput) -> np.ndarray:
    """Parse selection.csv and the report CSVs; returns the selected mask."""
    d = out.run_dir
    rows = _csv_rows(d / "selection.csv")
    selected = np.array([int(r["selected"]) == 1 for r in rows])
    p_adj = np.array([float(r["p_adjusted"]) for r in rows])
    if selected.size != out.generator["N"]:
        raise ValueError(f"selection.csv has {selected.size} rows, expected {out.generator['N']}")
    if not np.all((p_adj >= 0) & (p_adj <= 1)):
        raise ValueError("selection.csv has adjusted P-values outside [0, 1]")
    listed = np.zeros(selected.size, dtype=bool)
    for name, flag in (("selected_rows.csv", True), ("unselected_rows.csv", False)):
        idx = [int(r["feature_index"]) - 1 for r in _csv_rows(d / name)]
        if np.any(listed[idx]) or not np.all(selected[idx] == flag):
            raise ValueError(f"{name} disagrees with selection.csv")
        listed[idx] = True
    if not listed.all():
        raise ValueError("report row lists do not cover every feature")
    for name in ("u1u2_scatter.csv", "uj_series.csv"):
        for r in _csv_rows(d / name):
            for value in r.values():
                if value != "":
                    float(value)  # raises ValueError on anything but a number
    return selected


def check_sinusoid(out: CliOutput) -> str | None:
    n1 = out.generator["N1"]
    selected = _selection_and_report(out)
    truth = np.array([int(r["truth"]) == 1 for r in _csv_rows(out.run_dir / "truth.csv")])
    if truth.size != selected.size or not truth[:n1].all() or truth[n1:].any():
        return "truth.csv does not mark exactly the first N1 rows"
    with open(out.run_dir / "confusion.json") as fh:
        conf = json.load(fh)
    tp, fp = int(np.sum(selected & truth)), int(np.sum(selected & ~truth))
    if (conf["tp"], conf["fp"]) != (tp, fp):
        return f"confusion.json TP/FP {conf['tp']}/{conf['fp']} != selection {tp}/{fp}"
    return selection_failure(selected, truth, SINUSOID_MAX_FP)


def check_gcm(out: CliOutput) -> str | None:
    """Non-empty selection whose rows track the leading temporal pattern better than the rest.

    The selected-count range of the acceptance suite is not gated: it is a
    known failure of the simulator, reported as ``select.selected``.
    """
    selected = _selection_and_report(out)
    if not selected.any():
        return "rcs-gcm selection is empty"
    x = _read_m2(out.run_dir / "data.txt")
    pattern = np.linalg.svd(x, full_matrices=False)[2][0]
    xc = x - x.mean(axis=1, keepdims=True)
    pc = pattern - pattern.mean()
    corr = np.abs(xc @ pc) / (np.linalg.norm(xc, axis=1) * np.linalg.norm(pc) + 1e-300)
    if selected.all() or not corr[selected].mean() > corr[~selected].mean():
        return "selected rows do not track the leading temporal pattern better than the rest"
    return None


class MatrixCli:
    """Each op is one sinusoid and one rcs-gcm member, each through in-process ``cli.main``.

    A pass is that one op.  The rcs-gcm member's time swings by about 10%
    between back-to-back repeats, so every run makes at least two passes.
    """

    name = "matrix-cli"
    min_passes = 2

    def __init__(self, seed: int, work_dir: Path, sinusoid: dict | None = None,
                 gcm: dict | None = None):
        self.work_dir = Path(work_dir)
        self.members = [("sinusoid", seed, sinusoid, check_sinusoid),
                        ("rcs-gcm", seed + GCM_SEED_OFFSET, gcm, check_gcm)]
        self.generators: dict = {}
        self.configs: dict = {}

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for experiment, _, generator, _ in self.members:
            self.generators[experiment] = cli.build_config(
                experiment, overrides={"generator": generator}).generator
            if generator:
                path = self.work_dir / f"{experiment}.json"
                path.write_text(json.dumps({"generator": generator}))
                self.configs[experiment] = ["--config", str(path)]
        warm_blas()

    def ops(self) -> list[Op]:
        label = " + ".join(f"{e} {s}" for e, s, _, _ in self.members)
        return [Op(label, self._pair, self._check_pair)]

    def _pair(self) -> list[CliOutput]:
        return [self.member(e, s) for e, s, _, _ in self.members]

    def _check_pair(self, outs: list[CliOutput]) -> str | None:
        failures = [self.check_member(out, check) for out, (*_, check) in zip(outs, self.members)]
        return next((f for f in failures if f), None)

    def member(self, experiment: str, seed: int) -> CliOutput:
        """generate -> select -> (evaluate) -> report for one member in a fresh directory."""
        d = Path(tempfile.mkdtemp(prefix=f"{experiment}-", dir=self.work_dir))
        common = ["--experiment", experiment, "--seed", str(seed), "--out-dir", str(d),
                  *self.configs.get(experiment, [])]
        commands = [["generate"], ["select", "--data", str(d / "data.txt")]]
        if experiment == "sinusoid":
            commands.append(["evaluate", "--selection", str(d / "selection.csv"),
                             "--truth", str(d / "truth.csv"), "--out", str(d / "confusion.json")])
        commands.append(["report"])
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            for command in commands:
                try:
                    codes.append(cli.main([command[0], *common, *command[1:]]))
                except SystemExit as exc:  # argparse rejects the arguments
                    codes.append(exc.code)
                if codes[-1] != 0:
                    break
        return CliOutput(experiment, d, codes, err.getvalue().strip(), self.generators[experiment])

    @staticmethod
    def check_member(out: CliOutput, check) -> str | None:
        """Exit codes, then the experiment's artifact check; removes the member's directory."""
        try:
            if any(code != 0 for code in out.codes):
                return f"{out.experiment}: cli exit codes {out.codes}: {out.stderr}"
            return check(out)
        except (OSError, ValueError, KeyError) as exc:
            return f"{out.experiment}: bad artifact: {exc}"
        finally:
            shutil.rmtree(out.run_dir, ignore_errors=True)


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "block-fit":
        return BlockFit(seed)
    if name == "block-certify":
        return BlockCertify(seed)
    if name == "matrix-cli":
        return MatrixCli(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
