import os

import pytest

from noisyvqc.cli import main
from noisyvqc.sweep import CSV_HEADER, read_results_csv


def read_lines(path):
    with open(path) as f:
        return f.read().splitlines()


class TestRunCommand:
    def test_default_steps_write_100_rows(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--channel", "none", "--seed", "1", "--out", out]) == 0
        lines = read_lines(os.path.join(out, "run_none_0_1.csv"))
        assert len(lines) == 101  # header + 100 data rows

    def test_steps_flag(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(
            ["run", "--channel", "phase-flip", "--prob", "1.0", "--steps", "10", "--out", out]
        )
        assert code == 0
        lines = read_lines(os.path.join(out, "run_phase-flip_1_1.csv"))
        assert len(lines) == 11

    def test_out_of_range_probability_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--channel", "depolarizing", "--prob", "1.5", "--out", str(tmp_path)])
        assert exc.value.code != 0

    def test_negative_zero_probability_is_the_baseline_cell(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--channel", "none", "--prob", "-0", "--steps", "2", "--out", str(out)]) == 0
        assert os.listdir(out) == ["run_none_0_1.csv"]
        assert read_lines(out / "run_none_0_1.csv")[1].startswith("none_0_1,none,0.000000,1,1,")

    def test_unknown_channel_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--channel", "thermal", "--out", str(tmp_path)])
        assert exc.value.code != 0

    def test_custom_data_file(self, tmp_path):
        data = tmp_path / "iris.csv"
        rows = [f"5.{i},3.5,1.{i},0.2,Iris-setosa" for i in range(5)]
        rows += [f"6.{i},3.0,4.{i},1.3,Iris-versicolor" for i in range(5)]
        data.write_text("\n".join(rows) + "\n")
        out = str(tmp_path / "out")
        code = main(
            ["run", "--channel", "none", "--steps", "3", "--data", str(data), "--out", out]
        )
        assert code == 0


class TestTrainingFlagValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--channel", "none", "--batch", "0"],
            ["run", "--channel", "none", "--batch", "-1"],
            ["run", "--channel", "none", "--steps", "0"],
            ["run", "--channel", "none", "--layers", "0"],
            ["run", "--channel", "none", "--lr", "-1"],
            ["run", "--channel", "none", "--lr", "inf"],
            ["run", "--channel", "none", "--momentum", "1"],
            ["run", "--channel", "bit-flip", "--prob", "1.5"],
            ["run", "--channel", "none", "--seed", "-1"],
            ["run", "--channel", "none", "--data", "missing.csv"],
            # a noise-free run labelled p = 0.5
            ["run", "--channel", "none", "--prob", "0.5"],
            ["sweep", "--steps", "0"],
            ["sweep", "--batch", "0"],
            ["sweep", "--layers", "0"],
            ["sweep", "--lr", "0"],
            ["sweep", "--momentum", "-0.5"],
            ["sweep", "--workers", "0"],
            ["sweep", "--seeds", "-1"],
            ["sweep", "--probs", "0.5", "-0.1"],
            ["sweep", "--channels", "bit-flip", "--probs", "0.5", "--seeds", "1", "1"],
            ["sweep", "--channels", "bit-flip", "--probs", "0.1", "0.1000001"],
            ["sweep", "--probs", "0.5", "--channels", "bit-flip", "bit-flip"],
            # distinct run ids, but one probability in the 6-decimal CSVs
            ["sweep", "--channels", "bit-flip", "--seeds", "1", "--steps", "2", "--batch", "2",
             "--layers", "1", "--probs", "0", "-0"],
            ["sweep", "--channels", "bit-flip", "--seeds", "1", "--steps", "2", "--batch", "2",
             "--layers", "1", "--probs", "1e-7", "2e-7"],
        ],
    )
    def test_bad_value_exits_2_without_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"usage: noisyvqc {argv[0]}" in err
        # the last flag of each case holds the rejected value
        flag = [a for a in argv if a.startswith("--")][-1]
        assert f"error: argument {flag}:" in err


class TestOutIsAFile:
    @pytest.mark.parametrize(
        "command", [["run", "--channel", "none"], ["sweep", "--workers", "1"]], ids=["run", "sweep"]
    )
    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-file"])
    def test_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch, command, below):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting --out")

        monkeypatch.setattr("noisyvqc.sweep.train", no_training)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        with pytest.raises(SystemExit) as exc:
            main(command + ["--steps", "2", "--out", str(afile.joinpath(*below))])
        assert exc.value.code == 2
        assert afile.read_text() == "kept\n"
        err = capsys.readouterr().err
        assert f"usage: noisyvqc {command[0]}" in err
        assert f"error: argument --out: not a directory: {afile}" in err

    @pytest.mark.parametrize(
        "command", [["run", "--channel", "none"], ["sweep", "--workers", "1"]], ids=["run", "sweep"]
    )
    def test_empty_out_exits_2_before_any_run(self, capsys, monkeypatch, command):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting --out")

        monkeypatch.setattr("noisyvqc.sweep.train", no_training)
        with pytest.raises(SystemExit) as exc:
            main(command + ["--steps", "2", "--out", ""])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: noisyvqc {command[0]}" in err
        assert "error: argument --out: must name a directory" in err


class TestBadDataFile:
    @pytest.mark.parametrize("command", [["run", "--channel", "none"], ["sweep", "--workers", "1"]])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("5.1,3.5,1.4,0.2,Iris-setosa\n" * 5, "fewer than 2 classes"),
            ("5.1,3.5,1.4,0.2,Iris-setosa\n1.4,0.2\n", "line 2: expected 5 columns, got 2"),
            # 3 rows per class all go to the training side
            (
                "5.1,3.5,1.4,0.2,Iris-setosa\n" * 3 + "7.0,3.2,4.7,1.4,Iris-versicolor\n" * 3,
                "neither side may be empty",
            ),
            # petal length 1.4 in every row: nothing to scale on any training split
            (
                "5.1,3.5,1.4,0.2,Iris-setosa\n" * 4 + "7.0,3.2,1.4,1.4,Iris-versicolor\n" * 4,
                "seed 1: each feature needs max > min on the training split",
            ),
        ],
        ids=["one-class", "two-columns", "empty-validation-side", "constant-feature"],
    )
    def test_exits_2_without_output(self, tmp_path, capsys, command, text, message):
        data = tmp_path / "iris.csv"
        data.write_text(text)
        out = tmp_path / "out"
        argv = command + ["--steps", "2", "--data", str(data), "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"usage: noisyvqc {command[0]}" in err
        assert "error: argument --data:" in err and message in err


class TestSweepCommand:
    def test_filtered_sweep_file_set(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(
            [
                "sweep", "--channels", "depolarizing", "--seeds", "1",
                "--steps", "2", "--batch", "2", "--layers", "1", "--out", out,
            ]
        )
        assert code == 0
        names = sorted(os.listdir(out))
        run_files = [n for n in names if n.startswith("run_")]
        assert len(run_files) == 11  # 10 probabilities + 1 baseline
        assert "results.csv" in names
        assert "summary.csvs" not in names
        assert "summary.csv" in names
        svg_files = [n for n in names if n.endswith(".svg")]
        assert len(svg_files) == 11
        records = read_results_csv(os.path.join(out, "results.csv"))
        assert len(records) == 11

    def test_repeated_invocations_byte_identical(self, tmp_path):
        args = [
            "sweep", "--channels", "bit-flip", "--probs", "0.5", "1.0", "--seeds", "1", "2",
            "--steps", "3", "--batch", "2", "--layers", "1",
        ]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b, "--workers", "2"]) == 0
        for name in ("results.csv", "summary.csv"):
            with open(os.path.join(out_a, name), "rb") as fa, open(
                os.path.join(out_b, name), "rb"
            ) as fb:
                assert fa.read() == fb.read()


class TestSummarizeCommand:
    def test_recomputes_summary_from_results(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        main(
            [
                "sweep", "--channels", "phase-damping", "--probs", "0.1", "--seeds", "1",
                "--steps", "3", "--batch", "2", "--layers", "1", "--out", out,
            ]
        )
        summary_path = os.path.join(out, "summary.csv")
        before = open(summary_path, "rb").read()
        os.remove(summary_path)
        assert main(["summarize", "--out", out]) == 0
        assert open(summary_path, "rb").read() == before
        assert "phase-damping" in capsys.readouterr().out

    def test_missing_results_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", "--out", str(tmp_path / "nothing")])
        assert exc.value.code != 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("run_id,channel\nx,none\n", "unexpected header"),
            (CSV_HEADER + "\n", "holds no runs"),
            # two copies of a run's CSV concatenated: its steps restart at 1
            (
                CSV_HEADER + "\n" + "".join(
                    f"bit-flip_0.5_1,bit-flip,0.500000,1,{step},0.1,0.5,0.5\n"
                    for step in (1, 2, 3, 1, 2, 3)
                ),
                "line 5: run bit-flip_0.5_1 has step 1 after 3 steps",
            ),
            # another cell's row under the baseline's run id
            (
                CSV_HEADER + "\n"
                "none_0_1,none,0.000000,1,1,0.1,0.5,0.5\n"
                "none_0_1,bit-flip,0.300000,1,2,0.1,0.5,0.5\n",
                "line 3: run none_0_1 changes its channel, prob or seed",
            ),
            # a run's rows copied under another id would count as a second seed
            (
                CSV_HEADER + "\n" + "".join(
                    f"{rid},bit-flip,0.500000,1,{step},0.1,0.5,0.5\n"
                    for rid in ("bit-flip_0.5_1", "copy_of_run")
                    for step in (1, 2)
                ),
                "line 4: run copy_of_run repeats the channel, prob and seed of run bit-flip_0.5_1",
            ),
            (
                CSV_HEADER + "\nthermal_0.1_1,thermal,0.100000,1,1,0.1,0.5,0.5\n",
                "line 2: 'thermal' is not a valid ChannelKind",
            ),
            (
                CSV_HEADER + "\nnone_0_1,none,0.000000,1,x,0.1,0.5,0.5\n",
                "line 2: invalid literal for int() with base 10: 'x'",
            ),
            (
                CSV_HEADER + "\nnone_0_1,none,0.000000,1,1,low,0.5,0.5\n",
                "line 2: could not convert string to float: 'low'",
            ),
            # NaN equals nothing, so one cell's two seeds would be two cells
            (
                CSV_HEADER + "\n"
                "x,bit-flip,nan,1,1,0.1,0.5,0.5\n"
                "y,bit-flip,nan,2,1,0.1,0.5,0.5\n"
                "z,depolarizing,1.500000,1,1,0.1,0.5,0.5\n"
                "w,none,0.300000,1,1,0.1,0.5,0.5\n",
                "line 2: prob: nan outside [0, 1]",
            ),
        ],
        ids=[
            "bad-header", "header-only", "restarted-steps", "changed-cell", "copied-run",
            "bad-channel", "bad-step", "bad-float", "bad-prob",
        ],
    )
    def test_bad_results_exits_2_without_summary(self, tmp_path, capsys, text, message):
        (tmp_path / "results.csv").write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["summarize", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "results.csv" in err and message in err
        assert not (tmp_path / "summary.csv").exists()
