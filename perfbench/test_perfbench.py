"""Tests of the benchmark itself, at tiny sizes (a few seconds).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import client  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from btucker import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_BLOCK = {"generator": {"N": 60, "M": 6, "K": 6, "N1": 6, "mu": 3.0}, "ranks": (3, 2, 2)}
TINY_SINUSOID = {"N": 300, "M": 100, "N1": 30}
TINY_GCM = {"N": 300, "steps": 30}


def tiny(name: str, tmp_path: Path):
    if name == "block-fit":
        return workloads.BlockFit(1000, members=2, **TINY_BLOCK)
    if name == "block-certify":
        return workloads.BlockCertify(1001, **TINY_BLOCK)
    return workloads.MatrixCli(4000, tmp_path, sinusoid=TINY_SINUSOID, gcm=TINY_GCM)


@pytest.fixture(scope="module", params=workloads.DEFAULT_SEEDS)
def traced(request, tmp_path_factory):
    """An untraced run and a traced run of one tiny workload."""
    workload = tiny(request.param, tmp_path_factory.mktemp(request.param))
    workload.setup()
    passes = client.run_loop(workload, seconds=0.0)
    tracer, records = client.traced_run(workload)
    return workload, passes, tracer, records


def test_workloads_pass_their_checks(traced):
    _, passes, _, records = traced
    failures = [r for p in passes for r in p + records if r.failure]
    assert not failures


def test_every_benchmark_metric_is_emitted(traced):
    _, passes, tracer, _ = traced
    e2e = client.end_to_end_metrics(passes, setup_reps=[0.1, 0.2, 0.3], import_reps=[0.5])
    layer = tracing.layer_metrics(tracer.spans, tracer.ops, untraced_wall=1.0)
    for spec, emitted in ((BENCHMARK["end_to_end"], e2e), (BENCHMARK["per_layer"], layer)):
        assert [m["name"] for m in spec] == list(emitted)
        for m in spec:
            assert emitted[m["name"]][1] == m["unit"]


def test_layer_self_times_and_remainder_add_up_to_traced_wall(traced):
    _, _, tracer, _ = traced
    wall = sum(end - start for _, start, end in tracer.ops)
    parts = sum(tracing.layer_self_times(tracer.spans).values())
    remainder = tracing.untraced_remainder(tracer.spans, tracer.ops)
    assert remainder >= 0
    assert parts + remainder == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert all(s.end >= s.start for s in tracer.spans)
    assert all(t >= -1e-9 for t in tracing.self_times(tracer.spans))


def test_spans_nest_within_one_op(traced):
    _, _, tracer, _ = traced
    for s in tracer.spans:
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            assert parent.op == s.op
            assert parent.start <= s.start <= s.end <= parent.end


def test_every_wrapped_attribute_is_restored(traced):
    for layer in tracing.LAYERS:
        module = sys.modules[f"btucker.{layer}"]
        for attr, value in vars(module).items():
            assert not hasattr(value, "__wrapped__"), f"btucker.{layer}.{attr} is still wrapped"


def test_traced_run_records_each_layer_it_crosses(traced):
    workload, _, tracer, _ = traced
    layers = {s.layer for s in tracer.spans}
    if isinstance(workload, workloads.MatrixCli):
        assert layers == {"cli", "datagen", "tensor", "linalg", "select"}
    else:
        assert {"decomp", "linalg", "select", "tensor", "datagen"} <= layers


def test_install_refuses_twice_and_uninstall_restores():
    tracer = tracing.Tracer()
    original = cli.run_member
    with tracer.installed():
        assert cli.run_member is not original
        with pytest.raises(RuntimeError):
            tracer.install()
    assert cli.run_member is original


def test_hooi_flops_count_matches_hand_count():
    # 20x20x20 at ranks 2,2,2: every mode has the same shape
    per_mode = 2 * 20 * 400 * 2 + 2 * 20 * 2 * 20 * 2 + 2 * 20 * 16 + 9 * 64 + 2 * 20 * 4 * 2
    assert tracing.hooi_flops_per_iter((20, 20, 20), (2, 2, 2)) == 3 * per_mode + 2 * 2 * 20 * 4


def _flip_selection(run_dir: Path, rows_to_flip, update_report: bool) -> None:
    """Flip selection flags; with update_report, rewrite every artifact derived from them."""
    with open(run_dir / "selection.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for i in rows_to_flip:
        rows[i]["selected"] = str(1 - int(rows[i]["selected"]))
    with open(run_dir / "selection.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    if update_report:
        for name, flag in (("selected_rows.csv", "1"), ("unselected_rows.csv", "0")):
            lines = [r["feature_index"] for r in rows if r["selected"] == flag]
            (run_dir / name).write_text("\n".join(["feature_index", *lines]) + "\n")
        conf = json.loads((run_dir / "confusion.json").read_text())
        conf["tp"] = sum(r["selected"] == "1" for r in rows[: TINY_SINUSOID["N1"]])
        (run_dir / "confusion.json").write_text(json.dumps(conf))


@pytest.mark.parametrize("update_report", [True, False])
def test_matrix_check_rejects_corrupted_selection(tmp_path, update_report):
    workload = tiny("matrix-cli", tmp_path)
    workload.setup()
    check = workloads.check_sinusoid
    assert workload.check_member(workload.member("sinusoid", 4000), check) is None

    out = workload.member("sinusoid", 4000)
    _flip_selection(out.run_dir, range(3), update_report)  # drop three true features
    failure = workload.check_member(out, check)
    assert failure == ("selection TP 27 of 30, FP 0 (bounds TP >= N1-1, FP <= 2)" if update_report
                       else "sinusoid: bad artifact: selected_rows.csv disagrees with selection.csv")
    assert not out.run_dir.exists()


def test_matrix_check_rejects_failed_command(tmp_path):
    workload = tiny("matrix-cli", tmp_path)
    workload.setup()
    check = workloads.check_gcm
    out = workload.member("rcs-gcm", 5000)
    shutil.rmtree(out.run_dir)
    out.run_dir.mkdir()
    assert "bad artifact" in workload.check_member(out, check)
    out.run_dir.mkdir()
    failed = dataclasses.replace(out, codes=[0, 2], stderr="error: x")
    assert "exit codes" in workload.check_member(failed, check)


def test_matrix_op_fails_when_either_member_fails(tmp_path):
    workload = tiny("matrix-cli", tmp_path)
    workload.setup()
    (op,) = workload.ops()
    outs = op.run()
    outs[1] = dataclasses.replace(outs[1], codes=[3], stderr="error: degenerate")
    assert op.check(outs).startswith("rcs-gcm: cli exit codes [3]")
    assert not any(out.run_dir.exists() for out in outs)


def test_block_check_rejects_corrupted_selection(tmp_path):
    workload = tiny("block-certify", tmp_path)
    workload.setup()
    op = workload.ops()[0]
    out = op.run()
    assert op.check(out) is None
    corrupted = out.selected.copy()
    corrupted[np.flatnonzero(out.truth)[:2]] = False
    assert "selection TP" in op.check(dataclasses.replace(out, selected=corrupted))
    unconverged = dataclasses.replace(out.refit, sweeps=2)
    assert "btud refit" in op.check(dataclasses.replace(out, refit=unconverged))


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "block-fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
