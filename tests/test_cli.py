import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toporeg.cli as cli
from toporeg.cli import main
from toporeg.cloudfile import load_cloud_csv
from toporeg.geometry import anisotropy_profile
from toporeg.harness import ExperimentConfig, RunMetrics, run_seed


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
        assert err.startswith(f"error: {path}: ")
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


class TestTinyClouds:
    # three distinct points whose squared differences underflow to 0
    TEXT = "0,0\n1e-170,0\n0,3e-170\n"

    def test_barcode_has_two_nonzero_bars(self, tmp_path, capsys):
        assert main(["barcode", write_csv(tmp_path / "tiny.csv", self.TEXT)]) == 0
        bars = json.loads(capsys.readouterr().out)["bars"]
        assert [bar["length"] for bar in bars] == [3e-170, 1e-170]

    @pytest.mark.parametrize("select", ["all", "features"])
    def test_entropy_exits_0_with_the_unit_scale_result(self, tmp_path, capsys, select):
        assert main(["entropy", write_csv(tmp_path / "tiny.csv", self.TEXT), "--select", select]) == 0
        tiny = json.loads(capsys.readouterr().out)
        assert main(["entropy", write_csv(tmp_path / "unit.csv", "0,0\n1,0\n0,3\n"), "--select", select]) == 0
        unit = json.loads(capsys.readouterr().out)
        assert tiny == pytest.approx(unit, rel=1e-15)
        assert tiny["n_bars"] == 2


class TestUnreadableClouds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["barcode"],
            ["entropy"],
            ["entropy", "--select", "features"],
        ],
    )
    def test_overflowing_distances_exit_2(self, tmp_path, capsys, argv):
        # each coordinate is finite, but the first two points are 2e308 apart
        path = write_csv(tmp_path / "huge.csv", "1e308,1e308\n-1e308,-1e308\n0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert main([argv[0], path, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "overflow" in captured.err

    @pytest.mark.parametrize("command", ["barcode", "entropy", "anisotropy", "train"])
    def test_cell_past_the_csv_field_limit_exits_2(self, tmp_path, capsys, command):
        path = write_csv(tmp_path / "big.csv", f"1,2\n3,{'7' * 200_000}\n")
        argv = [command, path]
        if command == "train":
            argv = ["train", "--config", train_config(tmp_path, data={"csv": path}), "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err == f"error: {path}: field larger than field limit (131072) (row 2)\n"

    @pytest.mark.parametrize("command", ["barcode", "entropy", "anisotropy"])
    def test_non_utf8_csv_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe1,2\n3,4\n")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "binary.csv" in captured.err and "UTF-8" in captured.err

    @pytest.mark.parametrize(
        "text",
        [
            "x,y,label\n1.5,2\n3,4\n",  # once read as 1-D points with labels
            "x,y\n1,2,3\n4,5,6\n",  # once read as 3-D points
        ],
        ids=["label_header_over_two_columns", "two_column_header_over_three"],
    )
    @pytest.mark.parametrize("command", ["barcode", "entropy", "anisotropy"])
    def test_rows_must_match_the_header_width(self, tmp_path, capsys, command, text):
        path = write_csv(tmp_path / "cloud.csv", text)
        assert main([command, path, *(["--k", "1"] if command == "anisotropy" else [])]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "(row 2)" in captured.err


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

    def test_coordinates_whose_distances_overflow_have_scores(self, tmp_path, capsys):
        # the points are 2e308 apart, but anisotropy works on a rescaled copy
        path = write_csv(tmp_path / "huge.csv", "1e308,1e308\n-1e308,-1e308\n0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert main(["anisotropy", path, "--k", "2", "--centered"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out) == {"1": 1.0, "2": 0.0}

    def test_shortest_round_trip_float_format(self, tmp_path, capsys):
        # the score is 0.8435921354681385, which %.17g prints as 0.84359213546813849
        path = write_csv(tmp_path / "t.csv", "3,0\n0,1\n1,1\n")
        assert main(["anisotropy", path, "--k", "1"]) == 0
        out = capsys.readouterr().out
        value = json.loads(out)["1"]
        assert out == f'{{"1": {value!r}}}\n'
        assert len(repr(value)) < len(f"{value:.17g}")

    @pytest.mark.parametrize(
        "text,flags",
        [
            ("0,0,0\n0,0,0\n0,0,0\n", []),
            ("1.5,-2,0.25\n" * 4, ["--centered"]),
            ("1.5,-2,0.25\n", ["--centered"]),
        ],
        ids=["all_zero_raw", "all_equal_centered", "single_row_centered"],
    )
    def test_cloud_without_a_spectrum_exits_3(self, tmp_path, capsys, text, flags):
        path = write_csv(tmp_path / "flat.csv", text)
        assert main(["anisotropy", path, "--k", "1", *flags]) == 3
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "no singular value above rounding noise" in captured.err

    @pytest.mark.parametrize("centered", [False, True])
    def test_payload_is_the_profile_bitwise(self, tmp_path, capsys, centered):
        pts = np.random.default_rng(3).normal(size=(7, 4)) * [1.0, 1e-3, 5.0, 0.5] + 2.0
        path = write_csv(tmp_path / "p.csv", "\n".join(",".join(f"{float(v)!r}" for v in row) for row in pts) + "\n")
        for k in range(1, 5):
            assert main(["anisotropy", path, "--k", str(k), *(["--centered"] if centered else [])]) == 0
            payload = json.loads(capsys.readouterr().out)
            want = anisotropy_profile(pts, k_max=k, centered=centered).scores.tolist()
            assert list(payload) == [str(j) for j in range(1, k + 1)]
            assert np.array(list(payload.values())).tobytes() == np.array(want).tobytes()


def test_stdout_holds_the_library_results_bitwise(tmp_path, capsys):
    from oracles import same_json_values
    from toporeg.entropy import persistent_entropy, select_features
    from toporeg.geometry import pairwise_distances
    from toporeg.persistence import vr_barcode_0d

    pts = np.random.default_rng(4).normal(size=(40, 3)) * [1.0, 1e-3, 7.0]
    path = write_csv(tmp_path / "c.csv", "\n".join(",".join(f"{float(v)!r}" for v in row) for row in pts) + "\n")
    barcode = vr_barcode_0d(pairwise_distances(pts))
    lengths, a, b = barcode.lengths(), barcode.a, barcode.b
    order = np.lexsort((b, a, -lengths))
    selection = select_features(lengths)
    want = {
        ("barcode",): {
            "bars": [
                {"length": length, "a": i, "b": j}
                for length, i, j in zip(lengths[order].tolist(), a[order].tolist(), b[order].tolist())
            ]
        },
        ("entropy", "--select", "features"): {
            "n_bars": int(lengths.size),
            "entropy": persistent_entropy(lengths[selection.selected]),
            "alpha": selection.alpha,
            "selected": selection.selected,
            "noise": selection.noise,
        },
        ("anisotropy", "--k", "3", "--centered"): {
            str(k): score for k, score in enumerate(anisotropy_profile(pts, k_max=3, centered=True).scores.tolist(), 1)
        },
    }
    for (command, *flags), payload in want.items():
        assert main([command, path, *flags]) == 0
        out = capsys.readouterr().out
        assert same_json_values(out, json.dumps(payload))
        # the check sees a moved bit, a reordered key and a changed type
        assert not same_json_values(out, json.dumps(payload).replace("0", "1", 1))
    assert not same_json_values('{"a": 1, "b": 2}', '{"b": 2, "a": 1}')
    assert not same_json_values("[0.1]", "[0.30000000000000004]")
    assert not same_json_values("[1]", '["1"]')
    assert same_json_values("[-0, 2, 0.10000000000000001]", "[-0.0, 2.0, 0.1]")


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


def run_python(args, env=None, **kwargs):
    """``python *args`` in a fresh process that imports this toporeg, with
    ``env`` added to this process's environment; returns the CompletedProcess."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120, **kwargs)


def run_cli_process(argv, env=None, **kwargs):
    """``python -m toporeg *argv`` in a fresh process (see run_python)."""
    return run_python(["-m", "toporeg", *argv], env, **kwargs)


def test_python_dash_m_runs_the_cli(tmp_path):
    path = write_csv(tmp_path / "cloud.csv", "0,0\n3,4\n1,1\n")
    proc = run_cli_process(["barcode", path])
    assert (proc.returncode, proc.stderr) == (0, b"")
    rc, out, _ = run_main(["barcode", path])
    assert rc == 0 and proc.stdout == out.encode("utf-8")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("argv", [["anisotropy", "--k", "1"], ["barcode"]], ids=["anisotropy", "barcode"])
def test_unseekable_input_exits_2_naming_the_path(argv):
    # subprocess.run feeds `input` through a pipe, which cannot seek
    proc = run_cli_process([argv[0], "/dev/stdin", *argv[1:]], input=b"0,0\n3,4\n1,1\n")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode().splitlines() == [
        "error: /dev/stdin: cannot seek in this input (a pipe?); give a regular file"
    ]


# Prints, as the last line, the toporeg and numpy.ma modules loaded after
# `import toporeg` and after each command of the JSON list in argv[1], run in
# turn.
LOADED_MODULES_SCRIPT = """
import contextlib, io, json, sys
def loaded():
    return sorted(name for name in sys.modules if name.startswith(("toporeg.", "numpy.ma.")) or name == "numpy.ma")
import toporeg
steps = [loaded()]
from toporeg import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    steps.append(loaded())
print(json.dumps(steps))
"""


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    # fresh processes, since this one shares sys.modules with every other test
    def loaded_after_each(commands):
        proc = run_python(["-c", LOADED_MODULES_SCRIPT, json.dumps(commands)])
        assert proc.returncode == 0, proc.stderr.decode()
        return json.loads(proc.stdout.splitlines()[-1])

    def train(name, **overrides):
        (tmp_path / name).mkdir()
        return ["train", "--config", train_config(tmp_path / name, **overrides), "--out", str(tmp_path / name / "runs")]

    path = write_csv(tmp_path / "cloud.csv", "0,0\n3,4\n1,1\n")
    every = ["toporeg.cli", "toporeg.geometry", "toporeg.serialize"]
    anisotropy = sorted([*every, "toporeg.cloudfile"])
    barcode = sorted([*anisotropy, "toporeg.persistence"])
    entropy = sorted([*barcode, "toporeg.entropy"])
    commands = [["anisotropy", path, "--k", "2"], ["barcode", path], ["entropy", path, "--select", "features"]]
    assert loaded_after_each(commands) == [[], anisotropy, barcode, entropy]

    # blob data under regime none loads no CSV reader and no regularizer; no
    # command loads numpy.ma, which none of them uses
    data = write_csv(tmp_path / "data.csv", two_class_csv_text())
    unregularized = sorted([*every, "toporeg.harness", "toporeg.model"])
    labeled = sorted([*unregularized, "toporeg.cloudfile"])
    regularized = sorted([*labeled, "toporeg.entropy", "toporeg.persistence", "toporeg.regularizer"])
    commands = [
        train("none"),
        train("csv", data={"csv": data}),
        train("selected", regime="selected_bars"),
        train("all", regime="all_bars"),
    ]
    assert loaded_after_each(commands) == [[], unregularized, labeled, regularized, regularized]


# the address space each out-of-memory case may use: room for the
# interpreter, numpy and OpenBLAS's buffers, far below the failing arrays
ADDRESS_SPACE_CAP = 3 * 2**30


def cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps allocations only on Linux")
class TestOutOfMemory:
    """An allocation beyond the process's address-space limit exits 2 with
    one line naming the command and the size, not a traceback.  Each case
    runs in its own process, whose limit alone is capped."""

    @pytest.fixture
    def big_cloud(self, tmp_path):
        # 60,000 points: the distance matrix alone needs 26.8 GiB
        path = tmp_path / "big.csv"
        np.savetxt(path, np.random.default_rng(0).normal(size=(60_000, 3)), delimiter=",", fmt="%.6f")
        return str(path)

    def assert_out_of_memory(self, proc, command, size):
        err = proc.stderr.decode("utf-8")
        assert (proc.returncode, proc.stdout, len(err.splitlines())) == (2, b"", 1), err
        assert err.startswith(f"error: {command}: out of memory:") and size in err, err

    @pytest.mark.parametrize("argv", [["barcode"], ["entropy", "--select", "features"]], ids=["barcode", "entropy"])
    def test_cloud_commands(self, big_cloud, argv):
        proc = run_cli_process([argv[0], big_cloud, *argv[1:]], preexec_fn=cap_address_space)
        self.assert_out_of_memory(proc, argv[0], "26.8 GiB")

    def test_train(self, tmp_path):
        # 4 inputs, one hidden layer of 2e8 units, 2 outputs: 1.4e9 parameters
        cfg = train_config(tmp_path, hidden_dims=[200_000_000])
        proc = run_cli_process(["train", "--config", cfg, "--out", str(tmp_path / "r")], preexec_fn=cap_address_space)
        self.assert_out_of_memory(proc, "train", "10.4 GiB")


def test_memory_error_without_a_message_exits_2(monkeypatch, two_point_csv, capsys):
    def exhausted(path):
        raise MemoryError  # what Python's own allocators raise

    monkeypatch.setattr("toporeg.cloudfile.load_cloud_csv", exhausted)
    assert main(["anisotropy", two_point_csv]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert captured.err == "error: anisotropy: out of memory: allocation failed\n"


def openblas_on_x86_64() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return False
    return "openblas" in blas.lower() and platform.machine() == "x86_64"


@pytest.mark.skipif(not openblas_on_x86_64(), reason="OPENBLAS_CORETYPE needs OpenBLAS on x86-64")
class TestAcrossBlasKernels:
    """The determinism contract across BLAS kernels, with OpenBLAS's
    Prescott kernel (SSE3, which runs on any x86-64) against the one it
    picks for this CPU: barcode and entropy use no BLAS and are
    byte-identical; training agrees to rounding."""

    PRESCOTT = {"OPENBLAS_CORETYPE": "Prescott"}

    @pytest.fixture(scope="class")
    def cloud(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("kernels") / "cloud.csv"
        np.savetxt(path, np.random.default_rng(0).normal(size=(1500, 16)), delimiter=",", fmt="%.17g")
        return str(path)

    @pytest.mark.parametrize("argv", [["barcode"], ["entropy", "--select", "features"]], ids=["barcode", "entropy"])
    def test_cloud_commands_are_byte_identical(self, cloud, argv):
        default, prescott = (run_cli_process([argv[0], cloud, *argv[1:]], env=env) for env in ({}, self.PRESCOTT))
        assert default.returncode == prescott.returncode == 0
        assert default.stdout == prescott.stdout

    def test_train_records_agree_within_rounding(self, tmp_path):
        cfg = train_config(tmp_path, regime="selected_bars", epochs=10)  # 40 steps
        runs = []
        for name, env in (("default", {}), ("prescott", self.PRESCOTT)):
            proc = run_cli_process(["train", "--config", cfg, "--out", str(tmp_path / name)], env=env)
            assert proc.returncode == 0, proc.stderr
            lines = (tmp_path / name / "metrics_seed0.jsonl").read_text(encoding="utf-8").splitlines()
            runs.append([json.loads(line) for line in lines])
        default, prescott = runs
        assert len(default) == len(prescott) == 40
        for a, b in zip(default, prescott):
            assert a.keys() == b.keys() and a["val_accuracy"] == b["val_accuracy"]
            assert all(abs(a[key] - b[key]) <= 1e-12 for key in a), (a, b)


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

    @pytest.mark.parametrize(
        "out,file,directory",
        [
            ("runs", "runs", None),
            ("file/runs", "file", None),
            ("runs", None, "runs/metrics_seed0.jsonl"),
            ("runs", None, "runs/summary.json"),
        ],
        ids=["out_is_a_file", "out_under_a_file", "metrics_is_a_directory", "summary_is_a_directory"],
    )
    def test_unwritable_output_exits_2(self, tmp_path, capsys, out, file, directory):
        cfg = train_config(tmp_path)
        if file:
            (tmp_path / file).write_text("", encoding="utf-8")
        if directory:
            (tmp_path / directory).mkdir(parents=True)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / out)]) == 2
        assert_one_error_line(capsys.readouterr())

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
            (dict(data={"n_per_class": 40, "spread": 1e308}), "data.spread"),
            (dict(data={"csv": 5}), "data.csv"),
            (dict(data={"csv": ["a"]}), "data.csv"),
            (dict(data={"csv": "cloud.csv", "n_per_class": 40}), "data.n_per_class"),
            (dict(data={"csv": "a\x00b.csv"}), "data.csv"),
            (dict(data={"csv": "\ud800.csv"}), "data.csv"),
            (dict(seeds=[0, 0]), "seeds"),
            (dict(data={"n_per_class": 40, "foo": 1}), "data.foo"),
            (dict(data="data.csv"), "data"),
            # numpy would refuse these arrays with a ValueError
            (dict(data={"dim": 2**62}), "data.dim"),
            (dict(data={"n_per_class": 2**62}), "data.n_per_class"),
            (dict(data={"n_classes": 2**62}), "data.n_classes"),
            (dict(hidden_dims=[2**62]), "hidden_dims"),
            # the warmup schedule's step count would pass float64's range
            (dict(epochs=10**400), "epochs"),
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

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"seeds": ' + "[" * 990 + "]" * 990 + "}"],
        ids=["bare_arrays", "seeds"],
    )
    def test_config_nested_too_deeply_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err.startswith(f"error: {path}: invalid JSON:")

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err.startswith(f"error: {path}: invalid JSON:")

    def test_seeds_run_in_config_order(self, tmp_path):
        cfg = train_config(tmp_path, seeds=[3, 1], epochs=4)
        out = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "metrics_seed3.jsonl").exists()
        assert (out / "metrics_seed1.jsonl").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"] == [3, 1]

    @pytest.mark.parametrize("regime", ["none", "selected", "all"])
    def test_overflowing_parameters_exit_5(self, tmp_path, capsys, regime):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base_lr": 1e300, "epochs": 3, "seeds": [0]}), encoding="utf-8")
        out = tmp_path / "runs"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert main(["train", "--config", str(path), "--regime", regime, "--out", str(out)]) == 5
        assert_one_error_line(capsys.readouterr())
        lines = [json.loads(line) for line in (out / "metrics_seed0.jsonl").read_text().splitlines()]
        # the update of the last logged step left every parameter finite
        assert lines[-1]["diverged"] is True
        assert [rec["step"] for rec in lines[:-1]] == list(range(1, lines[-1]["step"]))

    def test_single_class_csv_exits_2(self, tmp_path, capsys):
        rows = ["x0,x1,label"] + [f"{i},{-i},0" for i in range(40)]
        data = write_csv(tmp_path / "one_class.csv", "\n".join(rows) + "\n")
        cfg = train_config(tmp_path, data={"csv": data}, hidden_dims=[4])
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err.startswith("error: data:") and "2 classes" in captured.err

    def test_divergence_exits_5_with_partial_outputs(self, tmp_path, monkeypatch):
        cfg = train_config(tmp_path)
        out = tmp_path / "runs"

        def fake_run_seed(config, seed, cloud):
            records = [{"step": i + 1, "ce": 1.0, "ent": 0.0, "total": 1.0} for i in range(4)]
            return RunMetrics(seed=seed, records=records, diverged=True)

        monkeypatch.setattr("toporeg.harness.run_seed", fake_run_seed)  # cmd_train imports it per call
        assert main(["train", "--config", cfg, "--out", str(out)]) == 5
        lines = (out / "metrics_seed0.jsonl").read_text().splitlines()
        assert json.loads(lines[-1]) == {"step": 5, "diverged": True}

    @pytest.mark.parametrize(
        "overrides,code,left",
        [
            (dict(base_lr=1e300), 5, ["metrics_seed0.jsonl", "metrics_seed1.jsonl"]),
            (dict(epochs=1), 0, ["metrics_seed0.jsonl", "metrics_seed1.jsonl"]),
            (dict(data="one_class"), 2, ["metrics_seed1.jsonl"]),
        ],
        ids=["diverged", "fewer_than_10_steps", "one_class_csv"],
    )
    def test_run_without_a_summary_removes_a_stale_one(self, tmp_path, overrides, code, left):
        out = tmp_path / "runs"
        assert main(["train", "--config", train_config(tmp_path, seeds=[0, 1]), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        seed1 = (out / "metrics_seed1.jsonl").read_bytes()
        if overrides.get("data") == "one_class":  # stops with exit 2 before its seed runs
            rows = ["x0,x1,label"] + [f"{i},{-i},0" for i in range(40)]
            overrides = dict(data={"csv": write_csv(tmp_path / "one_class.csv", "\n".join(rows) + "\n")})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", train_config(tmp_path, **overrides), "--out", str(out)]) == code
        assert sorted(path.name for path in out.iterdir()) == left
        # seed 1 is not in the second config, so its file is not that run's to remove
        assert (out / "metrics_seed1.jsonl").read_bytes() == seed1

    def test_config_that_does_not_parse_leaves_outputs_alone(self, tmp_path):
        out = tmp_path / "runs"
        assert main(["train", "--config", train_config(tmp_path), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert "summary.json" in before
        assert main(["train", "--config", train_config(tmp_path, epochs=0), "--out", str(out)]) == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_verbose_prints_one_line_per_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOPOREG_VERBOSE", "1")
        cfg = train_config(tmp_path, seeds=[2, 0])
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["seed 2: 12 steps (ok)", "seed 0: 12 steps (ok)"]

    def test_training_csv_without_labels_exits_2(self, tmp_path, capsys):
        data = write_csv(tmp_path / "data.csv", "x0,x1\n" + "".join(f"{i},{-i}\n" for i in range(40)))
        cfg = train_config(tmp_path, data={"csv": data})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err.startswith(f"error: data: {data}: csv file must carry a trailing 'label' column")

    def test_csv_dataset_via_config(self, tmp_path):
        data = write_csv(tmp_path / "data.csv", two_class_csv_text())
        cfg = train_config(tmp_path, data={"csv": data})
        out = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_csv_is_read_once_for_all_seeds(self, tmp_path, monkeypatch):
        data = write_csv(tmp_path / "data.csv", two_class_csv_text())
        cfg = train_config(tmp_path, data={"csv": data}, seeds=[0, 1])
        out = tmp_path / "runs"
        reads = []

        def counted(path):
            reads.append(path)
            return load_cloud_csv(path)

        monkeypatch.setattr("toporeg.cloudfile.load_cloud_csv", counted)
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert reads == [data]
        # each seed still draws its own split: the records are run_seed's on the file's path
        run_cfg = ExperimentConfig.from_dict(json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8")))
        for seed in (0, 1):
            lines = (out / f"metrics_seed{seed}.jsonl").read_text(encoding="utf-8").splitlines()
            assert [json.loads(line) for line in lines] == run_seed(run_cfg, seed).records

    @pytest.mark.parametrize(
        "labels", [(0, 2**62), (1, 2), ("\u0660", "\u0661")], ids=["huge", "from_one", "arabic_indic"]
    )
    def test_labels_map_to_consecutive_classes(self, tmp_path, labels):
        metrics = []
        for name, csv_labels in (("orig", (0, 1)), ("relabeled", labels)):
            data = write_csv(tmp_path / f"{name}.csv", two_class_csv_text(csv_labels))
            cfg = train_config(tmp_path, data={"csv": data})
            assert main(["train", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            metrics.append((tmp_path / name / "metrics_seed0.jsonl").read_bytes())
        assert metrics[0] == metrics[1]

    def test_relative_csv_path_resolves_against_the_config(self, tmp_path, monkeypatch):
        write_csv(tmp_path / "data.csv", two_class_csv_text())
        cfg = train_config(tmp_path, data={"csv": "data.csv"})
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["train", "--config", cfg, "--out", "runs"]) == 0
        summary = json.loads((elsewhere / "runs" / "summary.json").read_text())
        assert summary["config"]["data"] == {"csv": "data.csv"}  # as the config wrote it

    @pytest.mark.parametrize("csv", [False, True], ids=["blob", "csv"])
    def test_summary_config_reads_back_as_the_config(self, tmp_path, csv):
        overrides = {}
        if csv:
            write_csv(tmp_path / "data.csv", two_class_csv_text())
            overrides["data"] = {"csv": "data.csv"}
        cfg = train_config(tmp_path, **overrides)
        out = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        raw = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
        assert summary["config"]["data"] == raw["data"]
        assert ExperimentConfig.from_dict(summary["config"]) == ExperimentConfig.from_dict(raw)

    def test_bad_training_csv_names_the_file(self, tmp_path, capsys):
        data = write_csv(tmp_path / "data.csv", "x,label\n1,0\n2,one\n")
        cfg = train_config(tmp_path, data={"csv": data})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err.startswith(f"error: {data}: cannot parse label 'one' as an integer (row 3, column 2)")


def two_class_csv_text(labels=(0, 1)):
    """80 labelled points in two well-separated classes, with a header."""
    rng = np.random.default_rng(0)
    rows = ["x0,x1,x2,x3,label"]
    for i in range(80):
        c = i % 2
        point = rng.normal(size=4) + (3.0 if c else -3.0)
        rows.append(",".join(f"{float(v)!r}" for v in point) + f",{labels[c]}")
    return "\n".join(rows) + "\n"


# --- fuzzing: any input ends in a documented exit code with at most one error line

BAD_CELLS = ["", " ", "abc", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0x1"]
BAD_LABELS = ["-1", "x", "1.5", ""]
BOM = "\ufeff"


@st.composite
def csv_texts(draw):
    """CSV text, half of it malformed: ragged rows, bad or extreme cells, bad
    labels; some of it starts with a UTF-8 byte order mark."""
    clean = draw(st.booleans())
    width = draw(st.integers(1, 4))
    header = draw(st.sampled_from([None, "x,y", "x,y,label", "label"]))
    rows = [] if header is None else [header]
    number = st.floats(-1e6, 1e6).map(repr)
    for _ in range(draw(st.integers(0, 12))):
        n_cells = width if clean else draw(st.sampled_from([width, width + 1, max(width - 1, 1)]))
        cell = number if clean else st.one_of(number, st.sampled_from(BAD_CELLS))
        cells = draw(st.lists(cell, min_size=n_cells, max_size=n_cells))
        if header is not None and header.endswith("label"):
            cells.append(draw(st.sampled_from(["0", "1", "2"] + ([] if clean else BAD_LABELS))))
        rows.append(",".join(cells))
    bom = draw(st.sampled_from(["", "", "", BOM]))
    return bom + "\n".join(rows) + draw(st.sampled_from(["", "\n"]))


# the training CSV that test_train writes; replaced by its path
FUZZ_DATA = "<fuzz data csv>"

BAD = [True, "x", -1, [1], None, {"a": 1}]

# config field: (valid small values, invalid values)
CONFIG_FIELDS = {
    "regime": (["none", "selected_bars", "all_bars"], BAD + ["sometimes"]),
    "base_lr": ([1e-3, 1e-2, 0.5], BAD + [0.0, 1e300, float("nan")]),
    "weight_decay": ([0.0, 1e-3], BAD + [float("inf")]),
    "epochs": ([1], BAD + [0, 1.0, 10**400]),
    "batch_size": ([4, 8], BAD + [2, 4.0]),
    "entropy_weight": ([0.0, 1.0], BAD),
    "seeds": ([[0], [1, 0]], BAD + [[], [-1], [True], [0.5], [0, 0]]),
    "hidden_dims": ([[4], [4, 3]], BAD + [[], [0], [True], 4, [2**62]]),
    "data": (
        [{"csv": FUZZ_DATA}],
        BAD + [FUZZ_DATA, {"csv": "missing.csv"}, {"csv": "a\x00b.csv"}, {"csv": "\ud800.csv"}],
    ),
    "data.n_per_class": ([8, 12, 16], BAD + [4, 2.5]),
    "data.n_classes": ([2, 3], BAD + [1]),
    "data.dim": ([2, 3], BAD + [1, 2**62]),
    "data.spread": ([0.0, 1.0, 3.0], BAD + [-1.0, 1e308, float("nan"), float("inf")]),
}
# always given, so that no example falls back to the default run, which is much
# longer or, with a blob this small, has too few points for its batch size
REQUIRED_FIELDS = ("epochs", "batch_size", "data.n_per_class")


@st.composite
def train_configs(draw):
    """Config objects with valid small fields, of which a few are broken."""
    names = sorted(CONFIG_FIELDS)
    n_broken = draw(st.sampled_from([0, 0, 1, 2]))
    broken = draw(st.lists(st.sampled_from(names), min_size=n_broken, max_size=n_broken, unique=True))
    given = set(REQUIRED_FIELDS) | set(draw(st.lists(st.sampled_from(names), unique=True)))
    config, blob = {}, {}
    for name in names:
        if name not in given and name not in broken:
            continue
        valid, invalid = CONFIG_FIELDS[name]
        value = draw(st.sampled_from(invalid if name in broken else valid))
        if name.startswith("data."):
            blob[name[len("data."):]] = value
        else:
            config[name] = value
    if "data" not in config or draw(st.booleans()):
        config["data"] = blob
    if draw(st.integers(0, 9)) == 0:
        config["mystery"] = 1
    return draw(st.sampled_from([config] * 18 + [[1, 2], None]))


def run_main(argv):
    """main(argv) in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def assert_documented_outcome(rc, out, err):
    assert rc in (0, 2, 3, 4, 5), (rc, err)
    assert "Traceback" not in err
    if rc == 0:
        json.loads(out)
    else:
        assert len(err.splitlines()) <= 1, err


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(
        text=csv_texts(),
        argv=st.sampled_from(
            [["barcode"], ["entropy"], ["entropy", "--select", "features"]]
            + [["anisotropy", f"--k={k}"] for k in range(-1, 6)]
            + [["anisotropy", f"--k={k}", "--centered"] for k in range(-1, 6)]
        ),
    )
    @example(text=BOM + "0,0\n3,0\n0,4\n", argv=["barcode"])
    def test_cloud_commands(self, tmp_path_factory, text, argv):
        path = tmp_path_factory.getbasetemp() / "fuzz_cloud.csv"
        path.write_text(text, encoding="utf-8")
        outcome = run_main([argv[0], str(path), *argv[1:]])
        assert_documented_outcome(*outcome)
        if text.startswith(BOM):  # the mark changes nothing
            path.write_text(text[len(BOM):], encoding="utf-8")
            assert run_main([argv[0], str(path), *argv[1:]]) == outcome

    @settings(max_examples=100, deadline=None)
    @given(
        config=train_configs(),
        data=csv_texts(),
        regime=st.sampled_from([[], ["--regime", "none"], ["--regime", "selected"]]),
    )
    @example(config={"epochs": 1, "batch_size": 4, "data": {"csv": "a\x00b.csv"}}, data="", regime=[])
    @example(config={"epochs": 1, "batch_size": 4, "data": {"csv": "\ud800.csv"}}, data="", regime=[])
    def test_train(self, tmp_path_factory, config, data, regime):
        base = tmp_path_factory.getbasetemp()
        (base / "fuzz_data.csv").write_text(data, encoding="utf-8")
        path = base / "fuzz_config.json"
        path.write_text(json.dumps(config).replace(FUZZ_DATA, str(base / "fuzz_data.csv")), encoding="utf-8")
        with mock.patch.dict(os.environ):
            os.environ.pop("TOPOREG_VERBOSE", None)
            rc, out, err = run_main(["train", "--config", str(path), *regime, "--out", str(base / "fuzz_runs")])
        assert out == ""
        assert rc in (0, 2, 5), (rc, err)
        assert "Traceback" not in err and len(err.splitlines()) <= 1, err
