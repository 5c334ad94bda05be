"""Command-line front end: generate / decompose / select / evaluate / ensemble / report.

Named experiments carry their standard parameters as presets (data sizes,
rank caps, component choice).  The preset, a JSON config file and the flags
are applied in that order through one path, so each can override any field.
Outputs are deterministic functions of the configuration and the seed at a
given BLAS thread count; across thread counts, which round differently, the
fitted factors agree within 1e-10.
Ensemble member e runs with seed + e, so member 0 reproduces a standalone
run with the same base seed.

Exit codes: 0 success, 1 usage/validation error, 2 I/O error, 3 numerical
degeneracy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import datagen, decomp, linalg, select, tensor
from .errors import FileFormatError, NumericalDegeneracyError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DEGENERATE = 3

# The params class of each named experiment's generator; a config's generator
# keys are its fields other than seed.
EXPERIMENTS = {
    "synthetic-block": datagen.SyntheticBlockParams,
    "sinusoid": datagen.SinusoidParams,
    "rcs-gcm": datagen.GcmParams,
}

# Named-experiment presets, applied like a config file: generator defaults,
# ranks (also the rank caps of the experiment; an experiment without ranks has
# no cap), component choice.
PRESETS = {
    "synthetic-block": {
        "generator": {"N": 1000, "M": 20, "K": 20, "N1": 10, "mu": 1.0},
        "ranks": (10, 5, 5),
        "components": (1,),
    },
    "sinusoid": {
        "generator": {"N": 10000, "M": 100, "N1": 1000, "period": 3.0},
        "ranks": (10, 2, 1),
        "components": (1, 2),
    },
    "rcs-gcm": {
        "generator": {"N": 10000, "steps": 100, "a": 1.75, "c": 0.04},
        "components": (1,),
        # structured subpopulations dominate this data; the optimized-null-SD
        # route is the scoring regime built for that case
        "selection_mode": "td",
    },
}

# The values a string field may take; the flags offer the same.
CHOICES = {
    "component_rule": ("fixed", "by-core"),
    "selection_mode": ("btud", "td"),
}


@dataclass
class ExperimentConfig:
    experiment: str = "custom"
    generator: dict = field(default_factory=dict)
    ranks: tuple = (1, 1, 1)
    alpha: float = 0.0
    components: tuple = (1,)
    component_rule: str = "fixed"
    fixed_l2: tuple = ()              # by-core: mode-2 indices to scan (empty = all)
    fixed_l3: tuple = ()
    n_components: int = 1             # by-core: how many leading components to keep
    threshold: float = 0.05
    selection_mode: str = "btud"      # matrix data only
    ensembles: int = 1
    seed: int = 0

    # decomp's stop rule, readable for perfbench's HOOI call; not fields, so not settable
    max_iter: ClassVar[int] = decomp.DEFAULT_MAX_ITER
    tol: ClassVar[float] = decomp.DEFAULT_TOL
    factor_tol: ClassVar[float] = decomp.DEFAULT_FACTOR_TOL

    def validate(self) -> None:
        """Check every field and generator key; a ValueError names the first bad one."""
        if self.experiment not in EXPERIMENTS and self.experiment != "custom":
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for f in dataclasses.fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        params = EXPERIMENTS.get(self.experiment)
        keys = {f.name: f.type for f in dataclasses.fields(params)} if params else {}
        for key, value in self.generator.items():
            if key not in keys or key == "seed":
                raise ValueError(f"unknown generator key {key!r} for experiment {self.experiment}")
            _check_type(f"generator.{key}", value, keys[key])
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        if not 0 <= self.alpha <= sys.float_info.max:  # exact for any int; NaN fails
            raise ValueError(f"config field 'alpha' must be finite and >= 0, got {self.alpha}")
        if self.n_components < 1:
            raise ValueError(f"config field 'n_components' must be >= 1, got {self.n_components}")
        for name in ("ranks", "components", "fixed_l2", "fixed_l3"):  # sizes and 1-based indices
            if not all(1 <= v <= sys.maxsize for v in getattr(self, name)):
                raise ValueError(f"config field {name!r} entries must lie in 1..{sys.maxsize}")
        if not 0 < self.threshold < 1:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.ensembles < 1:
            raise ValueError(f"ensembles must be >= 1, got {self.ensembles}")
        if not 0 <= self.seed <= 2**64 - self.ensembles:  # every member's seed keys a Philox stream
            raise ValueError(f"config field 'seed' must satisfy 0 <= seed and "
                             f"seed + ensembles - 1 < 2**64, got {self.seed}")
        caps = PRESETS.get(self.experiment, {}).get("ranks")
        if caps is not None:
            for m, (r, cap) in enumerate(zip(self.ranks, caps), start=1):
                if r > cap:
                    raise ValueError(
                        f"experiment {self.experiment}: rank {r} of mode {m} exceeds cap {cap}"
                    )
            if max(self.components, default=0) > caps[0]:
                raise ValueError(
                    f"experiment {self.experiment}: component {max(self.components)} "
                    f"exceeds cap {caps[0]}"
                )


def _check_type(name: str, value, annotation: str) -> None:
    """Raise ValueError unless value fits the field's annotation (a bool is not a number)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok = {
        "int": number and isinstance(value, int),
        "float": number,
        "tuple": isinstance(value, tuple)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value),
        "str": isinstance(value, str),
        "dict": isinstance(value, dict),
    }[annotation]
    if not ok:
        raise ValueError(f"config field {name!r} must be of type {annotation}, got {value!r}")


def _apply(cfg: ExperimentConfig, doc) -> None:
    """Apply a preset, a config file or the flags to cfg; None means "not given"."""
    if not isinstance(doc, dict):
        raise ValueError(f"a config must be a JSON object, got {type(doc).__name__}")
    fields = {f.name for f in dataclasses.fields(cfg)}
    for key, value in doc.items():
        if key == "experiment":
            raise ValueError("config field 'experiment' is chosen by --experiment only")
        if key not in fields:
            raise ValueError(f"unknown config field {key!r}")
        if value is None:
            continue
        if key == "generator" and isinstance(value, dict):
            value = {**cfg.generator, **value}
        elif isinstance(value, list):
            value = tuple(value)
        setattr(cfg, key, value)


def build_config(experiment: str, config_path=None, overrides: dict | None = None) -> ExperimentConfig:
    """The experiment's preset, then the config file, then overrides (the flags), validated."""
    cfg = ExperimentConfig(experiment=experiment)
    docs = [PRESETS.get(experiment, {})]
    if config_path:
        try:
            docs.append(tensor._read_utf8(config_path, json.load))
        except RecursionError as exc:
            raise FileFormatError(f"config {config_path} nests too deeply to parse") from exc
        except json.JSONDecodeError:
            raise
        except ValueError as exc:  # int() refuses a number beyond its string-conversion limit
            raise FileFormatError(
                f"unparsable config {config_path}: a number has too many digits") from exc
    docs.append(overrides or {})
    for doc in docs:
        _apply(cfg, doc)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Pipeline pieces shared by the commands
# ---------------------------------------------------------------------------

def generate_data(cfg: ExperimentConfig, seed: int):
    """Returns (kind, data, truth_or_None) for the configured experiment."""
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError("custom experiments need an explicit data file; nothing to generate")
    params = EXPERIMENTS[cfg.experiment](seed=seed, **cfg.generator)
    if cfg.experiment == "synthetic-block":
        t, truth = datagen.gen_synthetic_block(params)
        return "tensor", t, truth
    if cfg.experiment == "sinusoid":
        x, truth = datagen.gen_sinusoid(params)
        return "matrix", x, truth
    return "matrix", datagen.simulate_rcs_gcm(params), None


def decompose_tensor(t: tensor.Tensor3, cfg: ExperimentConfig):
    """HOOI to its fixed point, then its certificate; returns (model, report, beta)."""
    model, report = decomp.hooi(t, cfg.ranks)
    beta = decomp.estimate_beta(t, model)
    # the fit, whatever cfg.alpha (selection's prior), is a fixed point of the alpha = 0 regression
    check = decomp.self_consistency_check(t, model, alpha=0.0, beta=beta)
    report.self_consistent = check.self_consistent
    report.max_mode_deviation = check.max_mode_deviation
    return model, report, beta


def choose_components(cfg: ExperimentConfig, model: decomp.TuckerModel | None) -> tuple:
    if cfg.component_rule == "fixed":
        return tuple(cfg.components)
    if model is None:
        raise ValueError("by-core component choice needs a decomposed model")
    fixed = {mode: indices for mode, indices in ((2, cfg.fixed_l2), (3, cfg.fixed_l3)) if indices}
    ranked = select.rank_components_by_core(model.core, fixed)
    return tuple(comp for comp, _ in ranked[: cfg.n_components])


def select_from_tensor(
    t: tensor.Tensor3, model: decomp.TuckerModel, cfg: ExperimentConfig, beta: float | None = None
) -> select.SelectionResult:
    if beta is None:
        beta = decomp.estimate_beta(t, model)
    means, cov = decomp.posterior_stats(t, model, mode=1, alpha=cfg.alpha, beta=beta)
    components = choose_components(cfg, model)
    stat = select.btud_statistic(means, cov, components, calibrate=True)
    p = select.chi2_sf(stat, dof=len(components))
    return select.select_features(p, threshold=cfg.threshold, statistic=stat, dof=len(components))


def select_from_matrix(
    x: np.ndarray, cfg: ExperimentConfig
) -> tuple[select.SelectionResult, linalg.SvdResult]:
    """The selection, and the SVD it scored (see :func:`select.svd_select_factors`)."""
    components = choose_components(cfg, None)
    return select.svd_select_factors(
        x, components, mode=cfg.selection_mode, threshold=cfg.threshold
    )


def confusion_counts(selected: np.ndarray, truth: np.ndarray) -> tuple[int, int, int, int]:
    """Returns (tn, fn, fp, tp)."""
    if selected.shape != truth.shape:
        raise ValueError(f"selection length {selected.size} != truth length {truth.size}")
    tp = int(np.sum(selected & truth))
    fp = int(np.sum(selected & ~truth))
    fn = int(np.sum(~selected & truth))
    tn = int(np.sum(~selected & ~truth))
    return tn, fn, fp, tp


def run_member(cfg: ExperimentConfig, seed: int) -> dict:
    """One generate -> decompose -> select -> evaluate pass, in memory; only what ensembles read."""
    kind, data, truth = generate_data(cfg, seed)
    out = {"seed": seed}
    if kind == "tensor":
        model, report, beta = decompose_tensor(data, cfg)
        result = select_from_tensor(data, model, cfg, beta=beta)
        out["self_consistent"] = report.self_consistent
    else:
        result, _ = select_from_matrix(data, cfg)
    out["selected_count"] = result.n_selected
    if truth is not None:
        out["confusion"] = confusion_counts(result.selected, truth)
    return out


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    kind, data, truth = generate_data(cfg, cfg.seed)
    data_path = out_dir / "data.txt"
    if kind == "tensor":
        tensor.write_tensor(data, data_path)
    else:
        tensor.write_matrix(data, data_path)
    if truth is not None:
        datagen.write_truth_csv(truth, out_dir / "truth.csv")
    print(f"seed {cfg.seed}")
    print(f"sha256 {_sha256(data_path)} {data_path}")
    return EXIT_OK


def cmd_decompose(data_path: Path, cfg: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    if tensor.data_kind(data_path) != "tensor":
        raise ValueError(
            "decompose expects tensor (T3) data; matrix experiments go straight to select"
        )
    t = tensor.read_tensor(data_path)
    model, report, beta = decompose_tensor(t, cfg)
    decomp.save_model(model, out_dir / "model.json", beta=beta, alpha=cfg.alpha, report=report)
    tensor.write_json(report.to_dict(), out_dir / "report.json", indent=1)
    print(
        f"sweeps {report.sweeps} converged {report.converged} "
        f"stop {report.stop_reason} newton_steps {report.newton_steps} "
        f"factor_change {report.final_factor_change} "
        f"gradient_norm {report.final_gradient_norm} self_consistent {report.self_consistent}"
    )
    return EXIT_OK


def cmd_select(data_path: Path, model_path: Path | None, cfg: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = tensor.data_kind(data_path)
    if kind == "tensor":
        if model_path is None:
            raise ValueError("tensor selection needs --model (posterior statistics need the fit)")
        t = tensor.read_tensor(data_path)
        model, meta = decomp.load_model(model_path)
        result = select_from_tensor(t, model, cfg, beta=meta.get("beta"))
    else:
        result, svd = select_from_matrix(tensor.read_matrix(data_path), cfg)
        select.write_factors_json(svd, out_dir / "factors.json")
    select.write_selection_csv(result, out_dir / "selection.csv")
    print(f"selected {result.n_selected} of {result.p_raw.size}")
    return EXIT_OK


def cmd_evaluate(selection_path: Path, truth_path: Path, out_path: Path) -> int:
    result = select.read_selection_csv(selection_path)
    truth = datagen.read_truth_csv(truth_path)
    tn, fn, fp, tp = confusion_counts(result.selected, truth)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tensor.write_json({"tn": tn, "fn": fn, "fp": fp, "tp": tp, "ensembles": 1,
                       "rows": [[tn, fn, fp, tp]]}, out_path, indent=1)
    print(f"tn {tn} fn {fn} fp {fp} tp {tp}")
    return EXIT_OK


def cmd_ensemble(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    run = functools.partial(run_member, cfg)
    seeds = range(cfg.seed, cfg.seed + cfg.ensembles)
    members: list[dict] = []
    pool = ProcessPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for member in pool.map(run, seeds) if pool else map(run, seeds):
            members.append(member)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
        header = ["member", "seed", "selected", "tn", "fn", "fp", "tp"]
        tensor.write_csv(out_dir / "ensemble_members.csv", header,
                         ([idx, m["seed"], m["selected_count"], *m.get("confusion", ("",) * 4)]
                          for idx, m in enumerate(members)))

    summary: dict = {
        "experiment": cfg.experiment,
        "ensembles": len(members),
        "seed": cfg.seed,
        "mean_selected": float(np.mean([m["selected_count"] for m in members])),
    }
    if members and "confusion" in members[0]:
        rows = np.array([m["confusion"] for m in members], dtype=np.float64)
        mean = rows.mean(axis=0)
        sd = rows.std(axis=0, ddof=1) if rows.shape[0] > 1 else np.zeros(4)
        names = ("tn", "fn", "fp", "tp")
        summary["confusion_mean"] = dict(zip(names, map(float, mean)))
        summary["confusion_sd"] = dict(zip(names, map(float, sd)))
    if members and "self_consistent" in members[0]:
        summary["self_consistent_members"] = sum(m["self_consistent"] is True for m in members)
    tensor.write_json(summary, out_dir / "ensemble_summary.json", indent=1)
    print(json.dumps(summary))
    return EXIT_OK


def cmd_report(run_dir: Path) -> int:
    """Emit plot-ready CSVs from the artifacts of a prior run in run_dir."""
    data_path = run_dir / "data.txt"
    selection_path = run_dir / "selection.csv"
    if not data_path.exists() or not selection_path.exists():
        raise OSError(f"missing data.txt or selection.csv under {run_dir}")
    # only the header: matrix runs plot the factors that select kept, tensor runs the model's
    kind = tensor.data_kind(data_path)
    factors_path = run_dir / ("model.json" if kind == "tensor" else "factors.json")
    if not factors_path.exists():
        raise OSError(f"missing {factors_path.name} under {run_dir}")
    if kind == "tensor":
        model, _ = decomp.load_model(factors_path)
        u = model.u1
    else:
        u, v = select.read_factors_json(factors_path)
    selected = select.read_selection_csv(selection_path).selected.astype(int)
    truth_path = run_dir / "truth.csv"
    truth = datagen.read_truth_csv(truth_path).astype(int) if truth_path.exists() else None
    for name, other in (("truth", truth), (factors_path.name, u[0])):
        if other is not None and other.size != selected.size:
            raise ValueError(f"selection length {selected.size} != {name} length {other.size}")
    truth_col = truth if truth is not None else [""] * selected.size
    index = range(1, selected.size + 1)

    if kind == "tensor":
        tensor.write_csv(run_dir / "u1i.csv", ["feature_index", "u1", "truth", "selected"],
                         zip(index, u[0], truth_col, selected, strict=True))
        for name, w in (("j", model.u2), ("k", model.u3)):
            groups = [1 if i < w.shape[1] // 2 else 2 for i in range(w.shape[1])]
            tensor.write_csv(run_dir / f"u1{name}.csv", [name, "value", "group"],
                             zip(range(1, w.shape[1] + 1), w[0], groups, strict=True))
    else:
        tensor.write_csv(run_dir / "u1u2_scatter.csv",
                         ["feature_index", "u1i", "u2i", "truth", "selected"],
                         zip(index, u[0], u[1], truth_col, selected, strict=True))
        tensor.write_csv(run_dir / "uj_series.csv", ["j", "u1j", "u2j"],
                         zip(range(1, v.shape[1] + 1), v[0], v[1], strict=True))
        for name, flag in (("selected_rows.csv", 1), ("unselected_rows.csv", 0)):
            tensor.write_csv(run_dir / name, ["feature_index"],
                             ([i] for i, chosen in zip(index, selected) if chosen == flag))
    print(f"report CSVs written to {run_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _int_tuple(text: str) -> tuple:
    return tuple(int(x) for x in text.replace(",", " ").split())


# Flags that set the config field of the same name; None when not given.
CONFIG_FLAGS = ("seed", "ranks", "alpha", "components", "threshold", "selection_mode",
                "ensembles")


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit with EXIT_USAGE (its own 2 is this CLI's I/O code)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--experiment", default="custom",
                        choices=[*EXPERIMENTS, "custom"], help="named experiment preset")
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--out-dir", default="runs", help="output directory")
    common.add_argument("--ranks", type=_int_tuple, default=None, help="L1,L2,L3")
    common.add_argument("--alpha", type=float, default=None)
    common.add_argument("--components", type=_int_tuple, default=None, help="e.g. 1,2")
    common.add_argument("--threshold", type=float, default=None)
    common.add_argument("--selection-mode", dest="selection_mode", default=None,
                        choices=CHOICES["selection_mode"])
    common.add_argument("--ensembles", type=int, default=None)

    parser = _Parser(prog="btucker", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", parents=[common])
    p = sub.add_parser("decompose", parents=[common])
    p.add_argument("--data", required=True)
    p = sub.add_parser("select", parents=[common])
    p.add_argument("--data", required=True)
    p.add_argument("--model", default=None)
    p = sub.add_parser("evaluate", parents=[common])
    p.add_argument("--selection", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None)
    sub.add_parser("ensemble", parents=[common])
    p = sub.add_parser("report", parents=[common])
    p.add_argument("--run-dir", default=None, help="defaults to --out-dir")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        flags = {key: getattr(args, key) for key in CONFIG_FLAGS}
        cfg = build_config(args.experiment, config_path=args.config, overrides=flags)
        out_dir = Path(args.out_dir)
        if args.command == "generate":
            return cmd_generate(cfg, out_dir)
        if args.command == "decompose":
            return cmd_decompose(Path(args.data), cfg, out_dir)
        if args.command == "select":
            model = Path(args.model) if args.model else None
            return cmd_select(Path(args.data), model, cfg, out_dir)
        if args.command == "evaluate":
            out = Path(args.out) if args.out else out_dir / "confusion.json"
            return cmd_evaluate(Path(args.selection), Path(args.truth), out)
        if args.command == "ensemble":
            return cmd_ensemble(cfg, out_dir, threads=args.threads)
        if args.command == "report":
            run_dir = Path(args.run_dir) if args.run_dir else out_dir
            return cmd_report(run_dir)
        raise ValueError(f"unknown command {args.command!r}")
    except (NumericalDegeneracyError, FloatingPointError) as exc:  # overflow is degeneracy
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
