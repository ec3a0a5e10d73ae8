import json
import math
import warnings

import numpy as np
import pytest

import toporeg.cli as cli
from toporeg.cli import main
from toporeg.harness import RunMetrics


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_one_error_line(captured):
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err


@pytest.fixture
def two_point_csv(tmp_path):
    return write_csv(tmp_path / "cloud.csv", "0,0\n3,4\n")


@pytest.fixture
def two_pairs_csv(tmp_path):
    # two tight pairs separated by a long bridge: bars {1, 1, 9}
    return write_csv(tmp_path / "pairs.csv", "0,0\n1,0\n10,0\n11,0\n")


class TestBarcodeCommand:
    def test_three_four_five(self, two_point_csv, capsys):
        assert main(["barcode", two_point_csv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"bars": [{"length": 5.0, "a": 0, "b": 1}]}

    def test_sorted_descending_with_index_tie_break(self, tmp_path, capsys):
        path = write_csv(tmp_path / "sq.csv", "0,0\n1,0\n0,1\n1,1\n")
        assert main(["barcode", path]) == 0
        bars = json.loads(capsys.readouterr().out)["bars"]
        assert [b["length"] for b in bars] == [1.0, 1.0, 1.0]
        assert [(b["a"], b["b"]) for b in bars] == [(0, 1), (0, 2), (1, 3)]

    def test_malformed_cell_names_row_and_column(self, tmp_path, capsys):
        path = write_csv(tmp_path / "bad.csv", "0,0\n1,abc\n")
        assert main(["barcode", path]) == 2
        err = capsys.readouterr().err
        assert "abc" in err and "row 2" in err and "column 2" in err

    def test_single_point_exits_3(self, tmp_path, capsys):
        path = write_csv(tmp_path / "one.csv", "1,2\n")
        assert main(["barcode", path]) == 3

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["barcode", str(tmp_path / "nope.csv")]) == 2

    def test_matches_single_linkage_oracle(self, tmp_path, capsys):
        from oracles import single_linkage_heights, scalar_distance_matrix

        rng = np.random.default_rng(0)
        pts = rng.normal(size=(7, 3))
        path = write_csv(
            tmp_path / "r.csv", "\n".join(",".join(f"{float(v)!r}" for v in row) for row in pts) + "\n"
        )
        assert main(["barcode", path]) == 0
        bars = json.loads(capsys.readouterr().out)["bars"]
        got = sorted(b["length"] for b in bars)
        want = single_linkage_heights(scalar_distance_matrix(pts))
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_header_and_label_column_are_ignored_for_geometry(self, tmp_path, capsys):
        path = write_csv(tmp_path / "lab.csv", "x,y,label\n0,0,0\n3,4,1\n")
        assert main(["barcode", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bars"][0]["length"] == 5.0


class TestEntropyCommand:
    def test_two_pairs_all_bars(self, two_pairs_csv, capsys):
        assert main(["entropy", two_pairs_csv, "--select", "all"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # direct evaluation of -sum(p log p) for bars {1, 1, 9}
        expected = -(2 * (1 / 11) * math.log(1 / 11) + (9 / 11) * math.log(9 / 11))
        assert payload["n_bars"] == 3
        assert payload["entropy"] == pytest.approx(expected, abs=1e-12)

    def test_equilateral_triangle_hits_log_two(self, tmp_path, capsys):
        h = math.sqrt(3) / 2
        path = write_csv(tmp_path / "tri.csv", f"0,0\n1,0\n0.5,{h!r}\n")
        assert main(["entropy", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entropy"] == pytest.approx(math.log(2), abs=1e-9)

    def test_feature_selection_keeps_the_bridge(self, two_pairs_csv, capsys):
        assert main(["entropy", two_pairs_csv, "--select", "features"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"n_bars", "entropy", "alpha", "selected", "noise"}
        assert payload["alpha"] == pytest.approx(1 / 9)
        # the selected set contains the long bridge bar and excludes a short bar
        assert len(payload["selected"]) + len(payload["noise"]) == 3
        assert payload["noise"]

    def test_parse_error(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "1,2\n3,oops\n")
        assert main(["entropy", path]) == 2

    @pytest.mark.parametrize("select", ["all", "features"])
    def test_all_duplicate_cloud_exits_3(self, tmp_path, capsys, select):
        path = write_csv(tmp_path / "dup.csv", "1.5,-2\n" * 5)
        assert main(["entropy", path, "--select", select]) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in captured.err


class TestUnreadableClouds:
    @pytest.mark.parametrize("argv", [["barcode"], ["entropy"], ["entropy", "--select", "features"]])
    def test_overflowing_distances_exit_2(self, tmp_path, capsys, argv):
        # each coordinate is finite, but the first two points are 2e308 apart
        path = write_csv(tmp_path / "huge.csv", "1e308,1e308\n-1e308,-1e308\n0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert main([argv[0], path, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "overflow" in captured.err

    @pytest.mark.parametrize("command", ["barcode", "entropy", "anisotropy"])
    def test_non_utf8_csv_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe1,2\n3,4\n")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "binary.csv" in captured.err and "UTF-8" in captured.err


class TestAnisotropyCommand:
    def test_rank_one_cloud(self, tmp_path, capsys):
        path = write_csv(tmp_path / "r1.csv", "1,2\n2,4\n3,6\n-1,-2\n")
        assert main(["anisotropy", path, "--k", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["1"] == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_case_is_exact(self, tmp_path, capsys):
        path = write_csv(tmp_path / "diag.csv", "3,0\n0,4\n")
        assert main(["anisotropy", path, "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["1"] == 0.64
        assert payload["2"] == 0.36

    def test_k_too_large_exits_4(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "3,0\n0,4\n")
        assert main(["anisotropy", path, "--k", "3"]) == 4

    def test_centered_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(30, 3)) + 7.0
        path = write_csv(
            tmp_path / "c.csv", "\n".join(",".join(f"{float(v)!r}" for v in row) for row in pts) + "\n"
        )
        assert main(["anisotropy", path, "--k", "1", "--centered"]) == 0
        got = json.loads(capsys.readouterr().out)["1"]
        eigs = np.sort(np.linalg.eigvalsh(np.cov(pts, rowvar=False)))[::-1]
        assert got == pytest.approx(eigs[0] / eigs.sum(), rel=1e-8)

    def test_seventeen_digit_float_format(self, tmp_path, capsys):
        path = write_csv(tmp_path / "t.csv", "1,0\n0,1\n1,1\n")
        assert main(["anisotropy", path, "--k", "1"]) == 0
        out = capsys.readouterr().out
        value = json.loads(out)["1"]
        assert f"{value:.17g}" in out


def train_config(tmp_path, **overrides):
    cfg = {
        "regime": "none",
        "epochs": 3,
        "batch_size": 16,
        "base_lr": 0.01,
        "weight_decay": 0.001,
        "seeds": [0],
        "data": {"n_per_class": 40, "n_classes": 2, "dim": 4, "spread": 3.0},
        "hidden_dims": [8, 4],
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestTrainCommand:
    def test_smoke_run_writes_metrics_and_summary(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        out = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "metrics_seed0.jsonl").read_text().splitlines()
        assert len(lines) == 12  # 3 epochs x 4 steps
        first = json.loads(lines[0])
        assert first["step"] == 1 and first["ent"] == 0.0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["ent"]["mean"] == 0.0
        assert summary["config"]["regime"] == "none"

    def test_regime_override_flag(self, tmp_path):
        cfg = train_config(tmp_path)
        out = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--regime", "all", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["regime"] == "all_bars"
        assert summary["metrics"]["ent"]["mean"] > 0.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = train_config(tmp_path, regime="selected_bars")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("metrics_seed0.jsonl", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_config_names_field(self, tmp_path, capsys):
        cfg = train_config(tmp_path, epochs=0)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(data={"n_per_class": 4}), "data.n_per_class"),
            (dict(seeds=[True]), "seeds"),
            (dict(base_lr="x"), "base_lr"),
            (dict(epochs=True), "epochs"),
            (dict(hidden_dims=[8, False]), "hidden_dims"),
            (dict(seeds=[-1]), "seeds"),
        ],
    )
    def test_invalid_field_values_exit_2_naming_the_field(self, tmp_path, capsys, overrides, field):
        cfg = train_config(tmp_path, **overrides)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err.startswith(f"error: {field}:")

    def test_json_list_config_with_regime_flag_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["train", "--config", str(path), "--regime", "all", "--out", str(tmp_path / "r")]) == 2
        assert_one_error_line(capsys.readouterr())

    def test_unparseable_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2

    def test_divergence_exits_5_with_partial_outputs(self, tmp_path, monkeypatch):
        cfg = train_config(tmp_path)
        out = tmp_path / "runs"

        def fake_run_seed(config, seed):
            records = [{"step": i + 1, "ce": 1.0, "ent": 0.0, "total": 1.0} for i in range(4)]
            return RunMetrics(seed=seed, records=records, diverged=True, divergence_step=5)

        monkeypatch.setattr(cli, "run_seed", fake_run_seed)
        assert main(["train", "--config", cfg, "--out", str(out)]) == 5
        lines = (out / "metrics_seed0.jsonl").read_text().splitlines()
        assert json.loads(lines[-1]) == {"step": 5, "diverged": True}

    def test_csv_dataset_via_config(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["x0,x1,x2,x3,label"]
        for i in range(80):
            c = i % 2
            point = rng.normal(size=4) + (3.0 if c else -3.0)
            rows.append(",".join(f"{float(v)!r}" for v in point) + f",{c}")
        data = write_csv(tmp_path / "data.csv", "\n".join(rows) + "\n")
        cfg = train_config(tmp_path, data={"csv": data})
        out = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
