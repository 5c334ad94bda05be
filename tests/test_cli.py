import ast
import csv
import dataclasses
import hashlib
import importlib
import json
import pickle
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import btucker
from btucker import datagen, decomp, linalg, select, tensor
from btucker.cli import (
    ExperimentConfig,
    build_config,
    confusion_counts,
    decompose_tensor,
    main,
    run_member,
    select_from_tensor,
)
from btucker.errors import FileFormatError
from oracles import reference_matrix_report

SMALL_BLOCK = {
    "generator": {"N": 80, "M": 8, "K": 8, "N1": 6, "mu": 2.0},
    "ranks": [3, 2, 2],
    "seed": 4,
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_BLOCK))
    return path


def sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestConfig:
    def test_presets(self):
        cfg = build_config("synthetic-block")
        assert cfg.generator["N"] == 1000
        assert cfg.ranks == (10, 5, 5)
        assert cfg.components == (1,)
        cfg = build_config("sinusoid")
        assert cfg.generator["N1"] == 1000
        assert cfg.components == (1, 2)
        cfg = build_config("rcs-gcm")
        assert cfg.generator["a"] == 1.75
        assert cfg.selection_mode == "td"

    def test_rank_caps_enforced(self):
        with pytest.raises(ValueError):
            build_config("synthetic-block", overrides={"ranks": (11, 5, 5)})
        with pytest.raises(ValueError):
            build_config("sinusoid", overrides={"components": (11,)})

    def test_config_file_and_overrides(self, small_config):
        cfg = build_config("synthetic-block", config_path=small_config,
                           overrides={"seed": 9})
        assert cfg.generator["N"] == 80
        assert cfg.ranks == (3, 2, 2)
        assert cfg.seed == 9

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"no_such_field": 1}')
        with pytest.raises(ValueError):
            build_config("synthetic-block", config_path=path)

    @pytest.mark.parametrize("experiment, doc, field", [
        ("synthetic-block", {"generator": {"NN": 5}}, "NN"),
        ("synthetic-block", {"generator": {"seed": 3}}, "seed"),
        ("synthetic-block", {"generator": {"N": 80.0}}, "generator.N"),
        ("synthetic-block", {"threshold": "0.1"}, "threshold"),
        ("synthetic-block", {"alpha": True}, "alpha"),
        ("synthetic-block", {"ranks": 5}, "ranks"),
        ("synthetic-block", {"components": [1.5]}, "components"),
        ("synthetic-block", {"experiment": "sinusoid"}, "experiment"),
        ("synthetic-block", {"alpha": -0.5}, "alpha"),
        ("synthetic-block", {"alpha": float("nan")}, "alpha"),
        ("synthetic-block", {"alpha": float("inf")}, "alpha"),
        ("synthetic-block", {"n_components": -1}, "n_components"),
        ("synthetic-block", {"solver": "btud"}, "solver"),
        ("synthetic-block", {"tol": 1e-6}, "tol"),
        ("synthetic-block", {"factor_tol": 0}, "factor_tol"),
        ("synthetic-block", {"max_iter": 10}, "max_iter"),
        ("custom", {"components": [10**400]}, "components"),
        ("synthetic-block", {"seed": -1}, "seed"),
        ("synthetic-block", {"seed": 2**64}, "seed"),
        ("synthetic-block", {"seed": 10**399}, "seed"),
        ("synthetic-block", {"seed": 2**64 - 1, "ensembles": 2}, "seed"),
    ], ids=["unknown-key", "seed-key", "float-for-int", "string-for-float", "bool-for-float",
            "int-for-tuple", "float-in-tuple", "experiment", "negative-alpha", "nan-alpha",
            "inf-alpha", "n-components-below-1", "solver", "tol", "factor-tol", "max-iter",
            "huge-component-custom", "negative-seed", "seed-2**64", "400-digit-seed",
            "last-member-seed-2**64"])
    def test_config_mistake_exits_1_naming_the_field(self, tmp_path, capsys, experiment, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["generate", "--experiment", experiment, "--config", str(path),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(field) in err

    @pytest.mark.parametrize("text", ['{"threshold": ', '{"threshold": 1' + "0" * 5000 + "}"],
                             ids=["truncated", "5001-digit-threshold"])
    def test_unparsable_config_exits_2(self, tmp_path, capsys, text):
        # a number past int()'s 4300-digit conversion limit is unparsable like any broken JSON
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["generate", "--experiment", "synthetic-block", "--config", str(path),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "set_int_max_str_digits" not in err

    def test_readme_settings_table_lists_the_fields(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("### Settings\n", 1)[1].strip().split("\n\n", 1)[0]
        rows = table.splitlines()[2:]  # below the header and its rule
        listed = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert sorted(listed) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))

    def test_readme_layout_table_and_all_resolve(self):
        # every backticked name in a Layout row is an attribute of that row's module
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("## Layout\n", 1)[1].strip().split("\n\n", 1)[0]
        for row in table.splitlines()[2:]:  # below the header and its rule
            _, module_cell, contents, _ = row.split("|")
            module = importlib.import_module(re.fullmatch(r"\s*`(btucker\.\w+)`\s*", module_cell)[1])
            names = re.findall(r"`([^`]*)`", contents)
            assert names, row
            for name in names:
                assert hasattr(module, name), f"{module.__name__} has no {name!r}"
        namespace = {}
        exec("from btucker import *", namespace)  # raises where a name in __all__ is missing
        assert set(btucker.__all__) <= set(namespace)

    def test_select_does_not_import_decomp(self):
        source = Path(select.__file__).read_text()
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        assert not [name for name in imported if "decomp" in name.split(".")]


class TestGenerate:
    def test_default_header_and_checksum(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["generate", "--experiment", "synthetic-block",
                     "--seed", "3", "--out-dir", str(out)])
        assert code == 0
        head = open(out / "data.txt").readline()
        assert head == "T3 1000 20 20\n"
        printed = capsys.readouterr().out
        assert "seed 3" in printed
        assert sha256(out / "data.txt") in printed

    def test_determinism_same_checksum(self, tmp_path, small_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(["generate", "--experiment", "synthetic-block",
                         "--config", str(small_config), "--out-dir", str(out)])
            assert code == 0
        assert sha256(out1 / "data.txt") == sha256(out2 / "data.txt")
        assert sha256(out1 / "truth.csv") == sha256(out2 / "truth.csv")

    def test_invalid_params_exit_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"generator": {"N": 10, "N1": 50}}))
        code = main(["generate", "--experiment", "synthetic-block",
                     "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert code == 1

    def test_matrix_experiment(self, tmp_path):
        cfg = tmp_path / "sin.json"
        cfg.write_text(json.dumps({"generator": {"N": 60, "M": 12, "N1": 10}}))
        out = tmp_path / "run"
        code = main(["generate", "--experiment", "sinusoid",
                     "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0
        assert open(out / "data.txt").readline() == "M2 60 12\n"


class TestDecompose:
    def test_small_pipeline(self, tmp_path, small_config, capsys):
        out = tmp_path / "run"
        assert main(["generate", "--experiment", "synthetic-block",
                     "--config", str(small_config), "--out-dir", str(out)]) == 0
        code = main(["decompose", "--experiment", "synthetic-block",
                     "--config", str(small_config),
                     "--data", str(out / "data.txt"), "--out-dir", str(out)])
        assert code == 0
        model, meta = decomp.load_model(out / "model.json")
        assert model.ranks == (3, 2, 2)
        assert "beta" in meta
        report = json.load(open(out / "report.json"))
        assert report["self_consistent"] is True

    def test_default_settings_fit_to_the_certified_fixed_point(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        tensor.write_tensor(tensor.Tensor3(np.random.default_rng(72).normal(size=(30, 8, 6))), path)
        code = main(["decompose", "--experiment", "custom", "--ranks", "3,2,2",
                     "--data", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "stop factor_tol" in out and "self_consistent True" in out
        assert "newton_steps " in out and "gradient_norm " in out

    def test_positive_alpha_certifies_the_fit(self, tmp_path, small_config, capsys):
        # the HOOI fit is the alpha = 0 fixed point whatever alpha is; alpha is selection's prior
        out = tmp_path / "run"
        common = ["--experiment", "synthetic-block", "--config", str(small_config),
                  "--out-dir", str(out)]
        assert main(["generate", *common]) == 0
        capsys.readouterr()
        assert main(["decompose", *common, "--alpha", "0.5", "--data", str(out / "data.txt")]) == 0
        assert "self_consistent True" in capsys.readouterr().out
        _, meta = decomp.load_model(out / "model.json")
        assert meta["alpha"] == 0.5

    def test_corrupted_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("T3 4 4 4\n1 2 junk\n")
        code = main(["decompose", "--experiment", "custom", "--ranks", "2,2,2",
                     "--data", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("header", ["T3 1 2 2", "M2 2 2"])
    def test_non_finite_file_exit_2(self, tmp_path, capsys, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n1 nan 2 3\n")
        command = "decompose" if header.startswith("T3") else "select"
        code = main([command, "--experiment", "custom", "--ranks", "1,1,1",
                     "--data", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: non-finite entries in {path}\n"

    # "1_0" is 10.0 to float() and "1 2 x" parses to a truncated body that matches
    # the header; the reader rejects every one
    @pytest.mark.parametrize("text", [
        "M2 1 2\n1 3x\n", "M2 1 2\n1,2\n", "M2 1 2\n1 1_0\n", "M2 1 2\n1 2\x00\n",
        "M2 1 2\n1 2 x", "T3 1 1 2\n1 3x\n", "T3 1 1 2\n1,2\n", "T3 1 1 2\n1 1_0\n",
        "T3 1 1 2\n1\x002\n",
    ], ids=["m2-3x", "m2-comma", "m2-underscore", "m2-nul", "m2-truncated",
            "t3-3x", "t3-comma", "t3-underscore", "t3-nul"])
    def test_unparsable_body_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        # T3 data needs --model; the data is read first, so no model file is made
        code = main(["select", "--experiment", "custom", "--data", str(path),
                     "--model", str(tmp_path / "model.json"), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unparsable {text[:2]} data in {path}") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "M2 1_0 1\n" + "1 " * 10, "M2 +2 1\n1 2\n", "M2 \u0662 1\n1 2\n", "M2\u00a02 1\n1 2\n",
        "M2 2.0 1\n1 2\n", "T3 1 1 -2\n1 2\n", "T3 1 1 0x2\n1 2\n", "T3 1 1 \uff12\n1 2\n",
    ], ids=["m2-underscore", "m2-plus", "m2-arabic-indic", "m2-nbsp", "m2-decimal",
            "t3-minus", "t3-hex", "t3-fullwidth"])
    def test_header_dims_not_ascii_digits_exit_2(self, tmp_path, capsys, text):
        # int() would read 1_0 as 10, +2 as 2 and non-ASCII digits as their values
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        code = main(["select", "--experiment", "custom", "--data", str(path),
                     "--model", str(tmp_path / "model.json"), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad header {text[:2]} in {path}") and err.count("\n") == 1

    @pytest.mark.parametrize("reader", ["select", "decompose", "model", "config", "truth"])
    def test_not_utf8_file_exit_2(self, tmp_path, capsys, reader):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00\x01")
        data, selection = tmp_path / "data.txt", tmp_path / "selection.csv"
        tensor.write_tensor(tensor.Tensor3(np.ones((2, 2, 2))), data)
        select.write_selection_csv(select.select_features(np.array([0.5]), 0.05), selection)
        argv = {
            "select": ["select", "--data", str(path)],
            "decompose": ["decompose", "--data", str(path)],
            "model": ["select", "--data", str(data), "--model", str(path)],
            "config": ["generate", "--config", str(path)],
            "truth": ["evaluate", "--selection", str(selection), "--truth", str(path)],
        }[reader]
        code = main([*argv, "--experiment", "custom", "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: not UTF-8 text: {path}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["generate", "--selection-mode", "nope"],
        ["decompose"],
        ["generate", "--seed", "x"],
    ], ids=["invalid-choice", "missing-required", "non-integer"])
    def test_usage_error_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("btucker ") and "error:" in err and err.count("\n") == 1

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: btucker")

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["decompose", "--experiment", "custom", "--ranks", "2,2,2",
                     "--data", str(tmp_path / "nope.txt"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("ranks", ["3,1,1", "1,3,1", "1,1,3"])
    def test_infeasible_ranks_exit_1(self, tmp_path, capsys, ranks):
        path = tmp_path / "t.txt"
        tensor.write_tensor(tensor.Tensor3(np.random.default_rng(0).normal(size=(20, 4, 4))), path)
        code = main(["decompose", "--experiment", "custom", "--ranks", ranks,
                     "--data", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "product of the other two ranks" in err

    def test_decompose_writes_strict_json(self, tmp_path, small_config):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        out = tmp_path / "run"
        main(["generate", "--experiment", "synthetic-block",
              "--config", str(small_config), "--out-dir", str(out)])
        code = main(["decompose", "--experiment", "synthetic-block",
                     "--config", str(small_config),
                     "--data", str(out / "data.txt"), "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        doc = json.loads((out / "model.json").read_text(), parse_constant=reject)
        assert doc["fit_report"] == report
        assert report["self_consistent"] is True
        assert report["converged"] is True and report["stop_reason"] == "factor_tol"
        ranks = build_config("synthetic-block", config_path=small_config).ranks
        expected, _ = decomp.hooi(tensor.read_tensor(out / "data.txt"), ranks)
        model, _ = decomp.load_model(out / "model.json")
        for name in ("core", "u1", "u2", "u3"):
            assert np.array_equal(getattr(model, name), getattr(expected, name))

    def test_matrix_data_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        tensor.write_matrix(np.zeros((3, 3)), path)
        code = main(["decompose", "--experiment", "custom", "--ranks", "1,1,1",
                     "--data", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1


class TestSelect:
    def test_tensor_selection(self, tmp_path, small_config):
        out = tmp_path / "run"
        main(["generate", "--experiment", "synthetic-block",
              "--config", str(small_config), "--out-dir", str(out)])
        main(["decompose", "--experiment", "synthetic-block",
              "--config", str(small_config),
              "--data", str(out / "data.txt"), "--out-dir", str(out)])
        code = main(["select", "--experiment", "synthetic-block",
                     "--config", str(small_config),
                     "--data", str(out / "data.txt"),
                     "--model", str(out / "model.json"), "--out-dir", str(out)])
        assert code == 0
        res = select.read_selection_csv(out / "selection.csv")
        truth = datagen.read_truth_csv(out / "truth.csv")
        tn, fn, fp, tp = confusion_counts(res.selected, truth)
        assert tp >= 5  # strong planted block: most of the 6 rows recovered
        assert fp <= 2

    def test_by_core_rule(self, tmp_path):
        by_core = {**SMALL_BLOCK, "component_rule": "by-core", "fixed_l2": [1], "fixed_l3": [1],
                   "n_components": 2}
        path = tmp_path / "by-core.json"
        path.write_text(json.dumps(by_core))
        out = tmp_path / "run"
        data = str(out / "data.txt")
        for command in (["generate"], ["decompose", "--data", data],
                        ["select", "--data", data, "--model", str(out / "model.json")]):
            assert main([command[0], "--experiment", "synthetic-block", "--config", str(path),
                         "--out-dir", str(out), *command[1:]]) == 0
        model, meta = decomp.load_model(out / "model.json")
        ranked = select.rank_components_by_core(model.core, {2: (1,), 3: (1,)})
        components = tuple(comp for comp, _ in ranked[:2])
        assert components == (1, 3)
        fixed = build_config("synthetic-block", overrides={**SMALL_BLOCK, "components": components})
        expected = select_from_tensor(tensor.read_tensor(data), model, fixed, beta=meta["beta"])
        written = select.read_selection_csv(out / "selection.csv")
        assert written.n_selected > 0
        for name in ("statistic", "p_raw", "p_adjusted", "selected"):
            assert np.array_equal(getattr(written, name), getattr(expected, name))

    def test_tensor_needs_model(self, tmp_path, small_config):
        out = tmp_path / "run"
        main(["generate", "--experiment", "synthetic-block",
              "--config", str(small_config), "--out-dir", str(out)])
        code = main(["select", "--experiment", "synthetic-block",
                     "--config", str(small_config),
                     "--data", str(out / "data.txt"), "--out-dir", str(out)])
        assert code == 1

    def test_matrix_selection(self, tmp_path):
        cfg = tmp_path / "sin.json"
        cfg.write_text(json.dumps(
            {"generator": {"N": 500, "M": 50, "N1": 50}, "seed": 2}))
        out = tmp_path / "run"
        main(["generate", "--experiment", "sinusoid", "--config", str(cfg),
              "--out-dir", str(out)])
        code = main(["select", "--experiment", "sinusoid", "--config", str(cfg),
                     "--data", str(out / "data.txt"), "--out-dir", str(out)])
        assert code == 0
        res = select.read_selection_csv(out / "selection.csv")
        truth = datagen.read_truth_csv(out / "truth.csv")
        tn, fn, fp, tp = confusion_counts(res.selected, truth)
        assert tp >= 45
        assert fp <= 5


class TestMalformedModel:
    @pytest.mark.parametrize("defect", [
        "missing-core", "ragged-u1", "short-core", "nan-u2", "list-beta", "huge-beta",
        "huge-core-entry", "nan-beta", "inf-beta", "bool-beta", "negative-alpha", "deep-nesting",
    ])
    def test_exit_2_with_one_line(self, tmp_path, capsys, defect):
        rng = np.random.default_rng(8)
        t = tensor.Tensor3(rng.normal(size=(6, 5, 4)))
        tensor.write_tensor(t, tmp_path / "data.txt")
        model, _ = decomp.hooi(t, (2, 2, 2))
        decomp.save_model(model, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        if defect == "missing-core":
            del doc["core"]
        elif defect == "ragged-u1":
            doc["u1"][1].pop()
        elif defect == "short-core":
            doc["core"].pop()
        elif defect == "nan-u2":
            doc["u2"][0][0] = float("nan")
        elif defect == "huge-core-entry":
            doc["core"][0] = 10**400
        elif defect == "negative-alpha":
            doc["alpha"] = -1.0
        else:
            doc["beta"] = {"list-beta": [1], "huge-beta": 10**400, "nan-beta": float("nan"),
                           "inf-beta": float("inf"), "bool-beta": True}.get(defect)
        text = "[" * 100000 + "]" * 100000 if defect == "deep-nesting" else json.dumps(doc)
        (tmp_path / "model.json").write_text(text)
        with pytest.raises(FileFormatError):
            decomp.load_model(tmp_path / "model.json")
        code = main(["select", "--experiment", "custom", "--data", str(tmp_path / "data.txt"),
                     "--model", str(tmp_path / "model.json"), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed model file") and err.count("\n") == 1


class TestEvaluate:
    def test_hand_built_case(self, tmp_path):
        sel = select.select_features(
            np.array([1e-9, 1e-9, 0.9, 0.9]), 0.05,
            statistic=np.array([40.0, 40.0, 0.1, 0.1]), dof=1)
        select.write_selection_csv(sel, tmp_path / "sel.csv")
        datagen.write_truth_csv(np.array([True, False, True, False]), tmp_path / "truth.csv")
        code = main(["evaluate", "--selection", str(tmp_path / "sel.csv"),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--out", str(tmp_path / "conf.json")])
        assert code == 0
        doc = json.load(open(tmp_path / "conf.json"))
        assert (doc["tn"], doc["fn"], doc["fp"], doc["tp"]) == (1, 1, 1, 1)
        assert doc["ensembles"] == 1 and doc["rows"] == [[1, 1, 1, 1]]

    def test_perfect_selection(self):
        sel = np.array([True, True, False])
        truth = np.array([True, True, False])
        tn, fn, fp, tp = confusion_counts(sel, truth)
        assert (fp, fn) == (0, 0)
        assert tn + fn + fp + tp == 3

    def test_empty_selection(self):
        sel = np.zeros(5, dtype=bool)
        truth = np.array([True, True, False, False, False])
        tn, fn, fp, tp = confusion_counts(sel, truth)
        assert tp == 0 and fn == 2

    @pytest.mark.parametrize("oversized", ["selection", "truth"])
    def test_csv_field_over_the_limit_exit_2(self, tmp_path, capsys, oversized):
        # the csv module refuses fields over 131072 characters
        sel = select.select_features(np.array([0.5]), 0.05)
        select.write_selection_csv(sel, tmp_path / "selection.csv")
        datagen.write_truth_csv(np.array([True]), tmp_path / "truth.csv")
        path = tmp_path / f"{oversized}.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n" + "1" * 131073 + "\n")
        code = main(["evaluate", "--selection", str(tmp_path / "selection.csv"),
                     "--truth", str(tmp_path / "truth.csv"), "--out", str(tmp_path / "c.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unparsable ") and err.count("\n") == 1

    def test_length_mismatch_exit_1(self, tmp_path):
        sel = select.select_features(np.array([0.5, 0.5]), 0.05)
        select.write_selection_csv(sel, tmp_path / "sel.csv")
        datagen.write_truth_csv(np.array([True]), tmp_path / "truth.csv")
        code = main(["evaluate", "--selection", str(tmp_path / "sel.csv"),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--out", str(tmp_path / "conf.json")])
        assert code == 1


class TestEnsemble:
    def test_member_zero_equals_standalone(self, small_config):
        cfg = build_config("synthetic-block", config_path=small_config)
        member = run_member(cfg, cfg.seed + 0)
        standalone = run_member(cfg, cfg.seed)
        assert member["confusion"] == standalone["confusion"]

    def test_member_record_is_small(self, small_config):
        # the process pool pickles every member back: a few numbers, no length-N arrays
        sinusoid = build_config("sinusoid", overrides={"generator": {"N": 2000, "M": 50, "N1": 50}})
        for cfg in (build_config("synthetic-block", config_path=small_config), sinusoid):
            member = run_member(cfg, cfg.seed)
            assert len(pickle.dumps(member)) < 400, member

    def test_summary_and_members_csv(self, tmp_path, small_config):
        out = tmp_path / "run"
        code = main(["ensemble", "--experiment", "synthetic-block",
                     "--config", str(small_config), "--ensembles", "2",
                     "--out-dir", str(out)])
        assert code == 0
        summary = json.load(open(out / "ensemble_summary.json"))
        assert summary["ensembles"] == 2
        assert "confusion_mean" in summary
        lines = open(out / "ensemble_members.csv").read().strip().splitlines()
        assert lines[0] == "member,seed,selected,tn,fn,fp,tp"
        assert len(lines) == 3

    def test_truthless_experiment_reports_counts_only(self, tmp_path):
        cfg = tmp_path / "gcm.json"
        cfg.write_text(json.dumps({"generator": {"N": 150, "steps": 30}}))
        out = tmp_path / "run"
        code = main(["ensemble", "--experiment", "rcs-gcm", "--config", str(cfg),
                     "--ensembles", "2", "--out-dir", str(out)])
        assert code == 0
        summary = json.load(open(out / "ensemble_summary.json"))
        assert "mean_selected" in summary
        assert "confusion_mean" not in summary

    def test_threads_match_serial(self, tmp_path, small_config):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for out, threads in ((serial, "1"), (parallel, "2")):
            code = main(["ensemble", "--experiment", "synthetic-block",
                         "--config", str(small_config), "--ensembles", "2",
                         "--threads", threads, "--out-dir", str(out)])
            assert code == 0
        assert (open(serial / "ensemble_members.csv").read()
                == open(parallel / "ensemble_members.csv").read())


class TestReport:
    def test_tensor_report_csvs(self, tmp_path, small_config):
        out = tmp_path / "run"
        main(["generate", "--experiment", "synthetic-block",
              "--config", str(small_config), "--out-dir", str(out)])
        main(["decompose", "--experiment", "synthetic-block",
              "--config", str(small_config),
              "--data", str(out / "data.txt"), "--out-dir", str(out)])
        main(["select", "--experiment", "synthetic-block",
              "--config", str(small_config), "--data", str(out / "data.txt"),
              "--model", str(out / "model.json"), "--out-dir", str(out)])
        code = main(["report", "--experiment", "synthetic-block",
                     "--config", str(small_config), "--out-dir", str(out)])
        assert code == 0
        u1i = open(out / "u1i.csv").readline().strip()
        assert u1i == "feature_index,u1,truth,selected"
        assert open(out / "u1j.csv").readline().strip() == "j,value,group"
        assert open(out / "u1k.csv").readline().strip() == "k,value,group"

    def test_matrix_report_csvs(self, tmp_path):
        cfg = tmp_path / "sin.json"
        cfg.write_text(json.dumps(
            {"generator": {"N": 500, "M": 50, "N1": 50}, "seed": 2}))
        out = tmp_path / "run"
        main(["generate", "--experiment", "sinusoid", "--config", str(cfg),
              "--out-dir", str(out)])
        main(["select", "--experiment", "sinusoid", "--config", str(cfg),
              "--data", str(out / "data.txt"), "--out-dir", str(out)])
        code = main(["report", "--experiment", "sinusoid", "--config", str(cfg),
                     "--out-dir", str(out)])
        assert code == 0
        assert open(out / "u1u2_scatter.csv").readline().strip() == \
            "feature_index,u1i,u2i,truth,selected"
        assert open(out / "uj_series.csv").readline().strip() == "j,u1j,u2j"
        selected = select.read_selection_csv(out / "selection.csv").selected
        for name, marked in (("selected_rows.csv", selected), ("unselected_rows.csv", ~selected)):
            with open(out / name, newline="") as fh:
                rows = [int(row["feature_index"]) for row in csv.DictReader(fh)]
            assert rows and rows == (np.flatnonzero(marked) + 1).tolist()

    def test_gcm_report_plots_the_scored_factors(self, tmp_path):
        # the td route scores the column-standardized matrix, so the report plots its SVD
        cfg = tmp_path / "gcm.json"
        cfg.write_text(json.dumps({"generator": {"N": 150, "steps": 30}, "seed": 7}))
        out = tmp_path / "run"
        for command in (["generate"], ["select", "--data", str(out / "data.txt")], ["report"]):
            code = main([command[0], "--experiment", "rcs-gcm", "--config", str(cfg),
                         "--out-dir", str(out), *command[1:]])
            assert code == 0
        x = tensor.read_matrix(out / "data.txt")
        scored = linalg.svd(select.standardize_columns(x), rank=2).U[:, 0]
        with open(out / "u1u2_scatter.csv", newline="") as fh:
            plotted = np.array([float(row["u1i"]) for row in csv.DictReader(fh)])
        assert np.array_equal(plotted, scored)

    def test_missing_inputs_exit(self, tmp_path):
        code = main(["report", "--experiment", "sinusoid",
                     "--out-dir", str(tmp_path / "void")])
        assert code == 2


def matrix_run(tmp_path, experiment, generator, seed, *flags):
    """generate and select a matrix member in tmp_path / "run"; returns the run directory."""
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": generator, "seed": seed}))
    for command in (["generate"], ["select", "--data", str(out / "data.txt"), *flags]):
        assert main([command[0], "--experiment", experiment, "--config", str(cfg),
                     "--out-dir", str(out), *command[1:]]) == 0
    return out


@pytest.fixture
def gcm_run(tmp_path):
    return matrix_run(tmp_path, "rcs-gcm", {"N": 150, "steps": 30}, 7)


class TestReportFromFactors:
    """Matrix reports plot the factors that select kept in factors.json."""

    @pytest.mark.parametrize("case", ["btud-sinusoid", "td-gcm", "rank-1"])
    def test_csvs_equal_the_refactored_data(self, tmp_path, case):
        if case == "btud-sinusoid":
            out = matrix_run(tmp_path, "sinusoid", {"N": 500, "M": 50, "N1": 50}, 2)
            assert select.read_selection_csv(out / "selection.csv").selected.sum() == 50
        elif case == "td-gcm":
            out = matrix_run(tmp_path, "rcs-gcm", {"N": 150, "steps": 30}, 7)
        else:  # one column: the SVD has rank 1, and u2 and v2 are plotted as 0
            out = tmp_path / "run"
            out.mkdir()
            x = np.random.default_rng(75).normal(size=(40, 1))
            x[:3] += 20.0
            tensor.write_matrix(x, out / "data.txt")
            assert main(["select", "--data", str(out / "data.txt"), "--out-dir", str(out)]) == 0
            assert len(json.loads((out / "factors.json").read_text())["u"]) == 1
        mode = "btud" if case != "td-gcm" else "td"
        experiment = {"btud-sinusoid": "sinusoid", "td-gcm": "rcs-gcm", "rank-1": "custom"}[case]
        assert main(["report", "--experiment", experiment, "--out-dir", str(out)]) == 0
        for name, want in reference_matrix_report(out, mode).items():
            assert (out / name).read_bytes() == want, name

    def test_factors_json_holds_two_rows_of_u_and_v(self, gcm_run):
        doc = json.loads((gcm_run / "factors.json").read_text())
        assert set(doc) == {"u", "v"}
        assert np.array(doc["u"]).shape == (2, 150) and np.array(doc["v"]).shape == (2, 30)

    def test_neither_parses_the_data_nor_factors_it(self, gcm_run, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("report must not need this")

        monkeypatch.setattr(tensor, "read_matrix", boom)
        monkeypatch.setattr(linalg, "svd", boom)
        assert main(["report", "--experiment", "rcs-gcm", "--out-dir", str(gcm_run)]) == 0
        assert (gcm_run / "uj_series.csv").read_text().count("\n") == 31

    @pytest.mark.parametrize("defect", ["missing", "not-json", "ragged", "nan", "huge",
                                        "extra-key", "string", "rank-3", "ranks-differ"])
    def test_missing_or_malformed_factors_exit_2(self, gcm_run, capsys, defect):
        path = gcm_run / "factors.json"
        doc = json.loads(path.read_text())
        if defect == "missing":
            path.unlink()
        elif defect == "not-json":
            path.write_text("{")
        else:
            if defect == "ragged":
                doc["u"][1] = doc["u"][1][:-1]
            elif defect in ("nan", "huge"):
                doc["v"][0][3] = float("nan") if defect == "nan" else "1e999"
            elif defect == "extra-key":
                doc["s"] = [1.0, 0.5]
            elif defect == "string":
                doc["u"][0][0] = "0.5"
            elif defect == "rank-3":
                doc["u"].append(doc["u"][0])
                doc["v"].append(doc["v"][0])
            else:
                doc["v"] = doc["v"][:1]
            text = json.dumps(doc).replace('"1e999"', "1e999")
            path.write_text(text)
        code = main(["report", "--experiment", "rcs-gcm", "--out-dir", str(gcm_run)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "factors.json" in err

    @pytest.mark.parametrize("short", ["truth", "selection"])
    def test_matrix_length_mismatch_exit_1(self, tmp_path, capsys, short):
        out = matrix_run(tmp_path, "sinusoid", {"N": 200, "M": 18, "N1": 40}, 6)
        path = out / f"{short}.csv"
        path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-5]))
        code = main(["report", "--experiment", "sinusoid", "--out-dir", str(out)])
        assert code == 1
        want = "195 != truth length 200" if short == "selection" else "200 != truth length 195"
        assert capsys.readouterr().err == f"error: selection length {want}\n"

    def test_factors_length_mismatch_exit_1(self, gcm_run, capsys):
        path = gcm_run / "selection.csv"
        path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-5]))
        code = main(["report", "--experiment", "rcs-gcm", "--out-dir", str(gcm_run)])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: selection length 145 != factors.json length 150\n"

    @pytest.mark.parametrize("short", ["truth", "selection"])
    def test_tensor_length_mismatch_exit_1(self, tmp_path, small_config, capsys, short):
        out = tmp_path / "run"
        common = ["--experiment", "synthetic-block", "--config", str(small_config),
                  "--out-dir", str(out)]
        data = ["--data", str(out / "data.txt")]
        for command in (["generate"], ["decompose", *data],
                        ["select", *data, "--model", str(out / "model.json")]):
            assert main([command[0], *common, *command[1:]]) == 0
        path = out / f"{short}.csv"
        path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-5]))
        assert main(["report", *common]) == 1
        want = "75 != truth length 80" if short == "selection" else "80 != truth length 75"
        assert capsys.readouterr().err == f"error: selection length {want}\n"


class TestExitCodes:
    def test_degeneracy_maps_to_exit_3(self, tmp_path, monkeypatch):
        from btucker import cli
        from btucker.errors import DegenerateVarianceError

        tensor.write_matrix(np.zeros((3, 3)) + np.eye(3), tmp_path / "m.txt")

        def boom(x, cfg):
            raise DegenerateVarianceError(2, 0.0)

        monkeypatch.setattr(cli, "select_from_matrix", boom)
        code = main(["select", "--experiment", "custom",
                     "--data", str(tmp_path / "m.txt"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 3


    @pytest.mark.parametrize("mode", ["btud", "td"])
    def test_rank_deficient_matrix_exit_3(self, tmp_path, capsys, mode):
        rng = np.random.default_rng(73)
        tensor.write_matrix(np.outer(rng.normal(size=200), rng.normal(size=30)), tmp_path / "m.txt")
        code = main(["select", "--experiment", "custom", "--components", "1,2",
                     "--selection-mode", mode, "--data", str(tmp_path / "m.txt"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: component 2 ") and err.count("\n") == 1


    @pytest.mark.parametrize("mode", ["btud", "td"])
    def test_noise_floor_names_the_squared_singular_value(self, tmp_path, capsys, mode):
        # component 2 of a rank-1 matrix is rounding noise; on the raw matrix (btud)
        # its squared singular value is about 1e269, and it is still no variance
        rng = np.random.default_rng(74)
        x = np.outer(rng.normal(size=30), rng.normal(size=6)) * 1e150
        tensor.write_matrix(x, tmp_path / "m.txt")
        code = main(["select", "--experiment", "custom", "--components", "1,2",
                     "--selection-mode", mode, "--data", str(tmp_path / "m.txt"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        found = re.fullmatch(r"error: component 2 has squared singular value (\S+), "
                             r"at or below the noise floor (\S+)\n", err)
        assert found and float(found[1]) <= float(found[2])

    @pytest.mark.parametrize("dims", [(30, 4, 3), (5, 4, 3)], ids=["tall", "short"])
    def test_overflowing_tensor_exit_3(self, tmp_path, capsys, dims):
        # an entry of 1e160 overflows ||x||^2, and on the tall tensor G = X(1)^T X(1) too: one line,
        # no warning, before an eigensolver meets an infinity
        x = np.random.default_rng(3).normal(size=dims)
        x[2, 1, 1] = 1e160
        tensor.write_tensor(tensor.Tensor3(x), tmp_path / "big.txt")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["decompose", "--ranks", "2,2,2", "--data", str(tmp_path / "big.txt"),
                         "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_trust_region_exit_3(self, tmp_path, capsys):
        # x 2^300: ||x||^2 and G stay finite, but the trust region's gradient norm overflows;
        # its overflow warnings stay, and the run ends in one error line, not a JSON error
        x = np.random.default_rng(0).standard_normal((10, 4, 4)) * 2.0 ** 300
        tensor.write_tensor(tensor.Tensor3(x), tmp_path / "huge.txt")
        code = main(["decompose", "--ranks", "2,2,2", "--data", str(tmp_path / "huge.txt"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")

    def test_overflowing_residual_exit_3(self, tmp_path, capsys):
        # x 2^520 overflows ||x||^2, and the residual of a model fitted to x and scaled with
        # it overflows its squares too: a model.json whose beta is null must then end select
        # in one line and no warning, not with a beta of 0
        x = np.random.default_rng(0).standard_normal((10, 4, 4))
        model, _ = decomp.hooi(tensor.Tensor3(x), (2, 2, 2))
        scale = 2.0 ** 520
        tensor.write_tensor(tensor.Tensor3(x * scale), tmp_path / "huge.txt")
        decomp.save_model(decomp.TuckerModel(model.core * scale, model.u1, model.u2, model.u3),
                          tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        (tmp_path / "model.json").write_text(json.dumps({**doc, "beta": None}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["select", "--ranks", "2,2,2", "--data", str(tmp_path / "huge.txt"),
                         "--model", str(tmp_path / "model.json"), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_all_zero_tensor_exit_3(self, tmp_path, capsys):
        # numerical rank 0 in every mode: no fit can be certified, so none is written
        tensor.write_tensor(tensor.Tensor3(np.zeros((2, 2, 2))), tmp_path / "zero.txt")
        code = main(["decompose", "--ranks", "1,1,1", "--data", str(tmp_path / "zero.txt"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the data are all zero") and err.count("\n") == 1
        assert not (tmp_path / "o" / "model.json").exists()

    def test_lapack_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # np.linalg.LinAlgError subclasses ValueError, the usage error: a fit whose eigensolver
        # does not converge must still end as degeneracy, with one line
        tensor.write_tensor(tensor.Tensor3(np.random.default_rng(0).normal(size=(10, 4, 4))),
                            tmp_path / "x.txt")

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(decomp, "hooi", boom)
        code = main(["decompose", "--ranks", "2,2,2", "--data", str(tmp_path / "x.txt"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == "error: Eigenvalues did not converge\n"

    @pytest.mark.parametrize("message", ["Unable to allocate 745. GiB for an array", ""])
    def test_memory_error_exit_1(self, tmp_path, capsys, monkeypatch, message):
        # a configured size too large to allocate ends as a usage error, in one line
        from btucker import cli

        def boom(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "cmd_generate", boom)
        code = main(["generate", "--experiment", "rcs-gcm", "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["btud", "td"])
    @pytest.mark.parametrize("case", ["entry", "scaled", "sum"])
    def test_overflowing_matrix_exit_3(self, tmp_path, capsys, case, mode):
        # ||x||^2 overflows through one entry of 1e160, through every entry scaled by 1e160,
        # or through the sum alone (every entry in [4e153, 8e153], whose squares are finite):
        # one line and no warning on both routes, td's standardization included
        x = np.random.default_rng(3).normal(size=(30, 6))
        if case == "entry":
            x[2, 1] = 1e160
        elif case == "scaled":
            x *= 1e160
        else:
            x = 4e153 * (1.0 + np.random.default_rng(3).random(size=(30, 6)))
        tensor.write_matrix(x, tmp_path / "big.txt")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["select", "--selection-mode", mode, "--data", str(tmp_path / "big.txt"),
                         "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestConfusionReport:
    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(67)
        sel = rng.random(40) < 0.3
        truth = rng.random(40) < 0.2
        tn, fn, fp, tp = confusion_counts(sel, truth)
        assert tn + fn + fp + tp == 40


class TestArtifactContract:
    """Every CSV a command writes has CRLF line ends and parses; every JSON is strict."""

    def test_every_artifact(self, tmp_path, small_config):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        sinusoid = tmp_path / "sin.json"
        sinusoid.write_text(json.dumps({"generator": {"N": 500, "M": 50, "N1": 50}, "seed": 2}))
        runs = tmp_path / "runs"
        for experiment, cfg in (("synthetic-block", small_config), ("sinusoid", sinusoid)):
            out = runs / experiment
            common = ["--experiment", experiment, "--config", str(cfg), "--out-dir", str(out)]
            data = ["--data", str(out / "data.txt")]
            commands = [["generate"]]
            if experiment == "synthetic-block":
                commands += [["decompose", *data],
                             ["select", *data, "--model", str(out / "model.json")]]
            else:
                commands += [["select", *data]]
            commands += [["evaluate", "--selection", str(out / "selection.csv"),
                          "--truth", str(out / "truth.csv")], ["report"]]
            for command in commands:
                assert main([command[0], *common, *command[1:]]) == 0, command
        assert main(["ensemble", "--experiment", "synthetic-block", "--config", str(small_config),
                     "--ensembles", "2", "--out-dir", str(runs / "ensemble")]) == 0

        csvs = sorted(runs.rglob("*.csv"))
        assert sorted(p.name for p in csvs) == sorted(
            ["truth.csv", "selection.csv", "u1i.csv", "u1j.csv", "u1k.csv"]
            + ["truth.csv", "selection.csv", "u1u2_scatter.csv", "uj_series.csv",
               "selected_rows.csv", "unselected_rows.csv"] + ["ensemble_members.csv"])
        for path in csvs:
            raw = path.read_bytes()
            assert raw.endswith(b"\r\n") and b"\n" not in raw.replace(b"\r\n", b""), path
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                rows = list(reader)
            assert reader.fieldnames and rows, path
            assert all(None not in row and None not in row.values() for row in rows), path
        jsons = sorted(runs.rglob("*.json"))
        assert sorted(p.name for p in jsons) == sorted(
            ["model.json", "report.json", "confusion.json", "confusion.json",
             "factors.json", "ensemble_summary.json"])
        for path in jsons:
            json.loads(path.read_text(), parse_constant=reject)


def tensor_pipeline(x, cfg):
    t = tensor.Tensor3(x)
    model, _, beta = decompose_tensor(t, cfg)
    return select_from_tensor(t, model, cfg, beta=beta)


@pytest.fixture(scope="module")
def block_member():
    """Synthetic-block seed 1001 with the preset, and its selection."""
    cfg = build_config("synthetic-block")
    t, _ = datagen.gen_synthetic_block(datagen.SyntheticBlockParams(seed=1001))
    return cfg, t.values, tensor_pipeline(t.values, cfg)


class TestMetamorphic:
    """Changes of the data that the fitted subspaces, and so the selection, follow exactly."""

    @pytest.mark.parametrize("change", ["scale", "rotate-mode-2", "permute-rows", "negate-slice"])
    def test_selection_and_pvalues_unchanged(self, block_member, change):
        cfg, x, base = block_member
        rng = np.random.default_rng(54)
        order = np.arange(x.shape[0])
        if change == "scale":
            y = 3.0 * x
        elif change == "rotate-mode-2":
            rotation = np.linalg.qr(rng.normal(size=(x.shape[1], x.shape[1])))[0]
            y = np.einsum("ijk,lj->ilk", x, rotation)
        elif change == "permute-rows":
            order = rng.permutation(x.shape[0])
            y = x[order]
        else:
            y = x.copy()
            y[:, :, 3] *= -1.0
        result = tensor_pipeline(y, cfg)
        selected, p = np.empty_like(base.selected), np.empty_like(base.p_raw)
        selected[order], p[order] = result.selected, result.p_raw
        assert np.array_equal(selected, base.selected)
        kept = base.p_raw > 1e-8
        assert np.max(np.abs(np.log(p[kept]) - np.log(base.p_raw[kept]))) <= 1e-4
