import os
import re
from dataclasses import fields

import numpy as np
import pytest

from noisyvqc import sweep
from noisyvqc.channels import ChannelKind
from noisyvqc.data import load_iris_binary
from noisyvqc.sweep import (
    CSV_HEADER,
    CellSummary,
    SettingError,
    SweepConfig,
    execute_run,
    read_results_csv,
    run_filename,
    run_id,
    run_sweep,
    summarize,
    write_results_csv,
    write_summary_csv,
    write_sweep_outputs,
)
from noisyvqc.circuit import AnsatzConfig
from noisyvqc.training import RunRecord, TrainSettings, train

TINY = dict(steps=4, batch_size=3, n_layers=1)
TRAINING_FIELDS = {f.name for f in fields(TrainSettings)}


def tiny_config(out_dir, workers=1, seeds=(1, 2)):
    return SweepConfig(
        channels=(ChannelKind.DEPOLARIZING,),
        probabilities=(0.5,),
        seeds=seeds,
        out_dir=str(out_dir),
        workers=workers,
        training=TrainSettings(steps=4, batch_size=3),
        n_layers=1,
    )


def synthetic_record(channel, prob, seed, val_accs):
    return RunRecord(channel, prob, seed, [0.1] * len(val_accs), list(val_accs), list(val_accs))


class TestNaming:
    def test_run_id_format(self):
        assert run_id(ChannelKind.PHASE_FLIP, 0.3, 4) == "phase-flip_0.3_4"
        assert run_id(ChannelKind.NONE, 0.0, 1) == "none_0_1"

    def test_filename(self):
        assert run_filename(ChannelKind.BIT_FLIP, 1.0, 2) == "run_bit-flip_1_2.csv"


class TestExecuteRun:
    def test_produces_full_record(self):
        record = execute_run(ChannelKind.PHASE_DAMPING, 0.2, seed=1, **TINY)
        assert record.channel is ChannelKind.PHASE_DAMPING
        assert record.probability == 0.2
        assert len(record.cost) == len(record.train_acc) == len(record.val_acc) == 4

    def test_seed_pins_everything(self):
        a = execute_run(ChannelKind.BIT_FLIP, 0.4, seed=7, **TINY)
        b = execute_run(ChannelKind.BIT_FLIP, 0.4, seed=7, **TINY)
        assert a == b

    @pytest.mark.parametrize(
        "field,value", [("batch_size", 0), ("steps", 0), ("learning_rate", float("nan"))]
    )
    def test_rejects_bad_training_setting_before_reading_data(self, tmp_path, field, value):
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SettingError, match=field) as exc:
            execute_run(ChannelKind.NONE, 0.0, 1, data_path=missing, **{field: value})
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "probability,n_layers,field", [(1.5, 5, "probability"), (0.5, 0, "n_layers")]
    )
    def test_rejects_bad_ansatz_setting_before_reading_data(
        self, tmp_path, probability, n_layers, field
    ):
        # the same rules as SweepConfig's, raised as the same error type
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SettingError) as exc:
            execute_run(ChannelKind.BIT_FLIP, probability, 1, n_layers, data_path=missing)
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "seed,data,field", [(-1, None, "seeds"), (1, "missing.csv", "data_path")]
    )
    def test_rejects_bad_seed_or_data_path_before_reading_data(
        self, tmp_path, monkeypatch, seed, data, field
    ):
        monkeypatch.setattr(sweep, "load_iris_binary", lambda *a: pytest.fail("data was read"))
        data_path = None if data is None else str(tmp_path / data)
        with pytest.raises(SettingError, match=field) as exc:
            execute_run(ChannelKind.NONE, 0.0, seed, data_path=data_path)
        assert exc.value.field == field

    def test_rejects_noise_free_run_with_a_probability(self, monkeypatch):
        # its output would carry the label of a p = 0.5 cell
        monkeypatch.setattr(sweep, "load_iris_binary", lambda *a: pytest.fail("data was read"))
        with pytest.raises(SettingError, match="must be 0 for channel none") as exc:
            execute_run(ChannelKind.NONE, 0.5, 1)
        assert exc.value.field == "probability"

    def test_rejects_unsplittable_data_before_training(self, tmp_path, monkeypatch):
        data = tmp_path / "iris.csv"
        data.write_text("5.1,3.5,1.4,0.2,Iris-setosa\n7.0,3.2,4.7,1.4,Iris-versicolor\n")
        monkeypatch.setattr(sweep, "train", lambda *a, **k: pytest.fail("a run started"))
        with pytest.raises(SettingError, match="neither side may be empty") as exc:
            execute_run(ChannelKind.NONE, 0.0, 1, data_path=str(data))
        assert exc.value.field == "data_path"


class TestRunSweep:
    def test_checks_the_data_before_any_run(self, tmp_path, monkeypatch):
        data = tmp_path / "iris.csv"
        data.write_text("5.1,3.5,1.4,0.2,Iris-setosa\n7.0,3.2,4.7,1.4,Iris-versicolor\n")
        monkeypatch.setattr(sweep, "train", lambda *a, **k: pytest.fail("a run started"))
        config = SweepConfig(
            channels=(ChannelKind.BIT_FLIP,), probabilities=(0.5,), seeds=(1, 2),
            data_path=str(data), out_dir=str(tmp_path / "out"), workers=1,
        )
        with pytest.raises(SettingError, match="neither side may be empty"):
            run_sweep(config)

    def test_rejects_a_seed_with_a_constant_training_feature(self, tmp_path, monkeypatch):
        # petal length 1.4 in every row but one versicolor row, which the
        # split of seed 2 puts on the validation side, and that of seed 1 not
        rows = [f"5.1,3.5,1.4,0.{w},Iris-setosa" for w in (2, 3, 2, 4)]
        rows += ["7.0,3.2,1.4,1.4,Iris-versicolor"] * 3 + ["7.0,3.2,4.7,1.4,Iris-versicolor"]
        data = tmp_path / "iris.csv"
        data.write_text("\n".join(rows) + "\n")
        monkeypatch.setattr(sweep, "train", lambda *a, **k: pytest.fail("a run started"))
        for seeds in [(1, 2), (2,)]:
            config = SweepConfig(
                channels=(ChannelKind.BIT_FLIP,), probabilities=(0.5,), seeds=seeds,
                data_path=str(data), out_dir=str(tmp_path / "out"), workers=1,
            )
            with pytest.raises(SettingError, match="seed 2: each feature needs max > min") as exc:
                run_sweep(config)
            assert exc.value.field == "data_path"
        with pytest.raises(SettingError, match="seed 2:"):
            execute_run(ChannelKind.NONE, 0.0, 2, data_path=str(data))
        monkeypatch.undo()
        assert len(execute_run(ChannelKind.NONE, 0.0, 1, steps=2, data_path=str(data)).cost) == 2

    def test_spec_order_and_count(self, tmp_path):
        config = tiny_config(tmp_path)
        records = run_sweep(config)
        specs = config.run_specs()
        assert len(records) == 4  # 2 baselines + 1 channel x 1 prob x 2 seeds
        assert [(r.channel, r.probability, r.seed) for r in records] == specs

    def test_worker_count_does_not_change_results(self, tmp_path):
        serial = run_sweep(tiny_config(tmp_path / "a", workers=1))
        parallel = run_sweep(tiny_config(tmp_path / "b", workers=2))
        for x, y in zip(serial, parallel):
            assert x == y

    def test_serial_sweep_parses_the_data_once(self, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return load_iris_binary(path)

        monkeypatch.setattr(sweep, "load_iris_binary", counting)
        config = SweepConfig(
            channels=(ChannelKind.DEPOLARIZING, ChannelKind.BIT_FLIP),
            probabilities=(0.5,),
            seeds=(1,),
            workers=1,
            training=TrainSettings(steps=2, batch_size=2),
            n_layers=1,
        )
        records = run_sweep(config)
        assert len(records) == 3
        assert calls == [None]
        for record, (channel, prob, seed) in zip(records, config.run_specs()):
            alone = execute_run(channel, prob, seed, steps=2, batch_size=2, n_layers=1)
            assert record == alone

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            SweepConfig(seeds=())

    def test_negative_zero_probability_reads_zero(self):
        config = SweepConfig(channels=(ChannelKind.BIT_FLIP,), probabilities=(-0.0, 0.5), seeds=(1,))
        assert [np.copysign(1.0, p) for p in config.probabilities] == [1.0, 1.0]
        assert [run_id(*spec) for spec in config.run_specs()][1] == "bit-flip_0_1"

    def test_rejects_bad_probability(self):
        with pytest.raises(SettingError, match=r"1.3 outside \[0, 1\]") as exc:
            SweepConfig(probabilities=(0.5, 1.3))
        assert exc.value.field == "probabilities"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("steps", 0),
            ("batch_size", 0),
            ("batch_size", -1),
            ("n_layers", 0),
            ("learning_rate", 0.0),
            ("learning_rate", -1.0),
            ("learning_rate", float("nan")),
            ("momentum", -0.1),
            ("momentum", 1.0),
            ("workers", 0),
        ],
    )
    def test_rejects_bad_training_setting(self, field, value):
        owner = TrainSettings if field in TRAINING_FIELDS else SweepConfig
        with pytest.raises(SettingError, match=field) as exc:
            owner(**{field: value})
        assert exc.value.field == field

    def test_rejects_negative_seed(self):
        with pytest.raises(SettingError, match="non-negative, got -1") as exc:
            SweepConfig(seeds=(1, -1))
        assert exc.value.field == "seeds"

    def test_rejects_missing_data_file(self, tmp_path):
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SettingError, match="no such file") as exc:
            SweepConfig(data_path=missing)
        assert exc.value.field == "data_path"

    @pytest.mark.parametrize(
        "grid,field,rid",
        [
            (dict(seeds=(1, 1)), "seeds", "none_0_1"),
            (dict(probabilities=(0.1, 0.1000001)), "probabilities", "bit-flip_0.1_1"),
            (dict(channels=(ChannelKind.BIT_FLIP,) * 2), "channels", "bit-flip_0.5_1"),
            (dict(channels=(ChannelKind.NONE,), probabilities=(0.0,)), "channels", "none_0_1"),
            # -0.0 reads as 0.0
            (dict(probabilities=(0.0, -0.0)), "probabilities", "bit-flip_0_1"),
        ],
    )
    def test_rejects_shared_run_id(self, grid, field, rid):
        settings = dict(channels=(ChannelKind.BIT_FLIP,), probabilities=(0.5,), seeds=(1,))
        with pytest.raises(SettingError, match=rid) as exc:
            SweepConfig(**{**settings, **grid})
        assert exc.value.field == field

    def test_rejects_noise_free_channel_in_the_grid(self):
        # it would train noise-free under the label of a p = 0.5 cell
        with pytest.raises(SettingError, match="none is not a noise channel") as exc:
            SweepConfig(channels=(ChannelKind.NONE,), probabilities=(0.5,))
        assert exc.value.field == "channels"

    @pytest.mark.parametrize("probs", [(0.0, 1e-9), (1e-7, 2e-7), (0.01, 0.0100001)])
    def test_rejects_probabilities_equal_in_csv(self, probs):
        # run ids differ, but results.csv writes both as one 6-decimal value
        with pytest.raises(SettingError, match="equal at 6 decimals") as exc:
            SweepConfig(channels=(ChannelKind.BIT_FLIP,), probabilities=probs, seeds=(1,))
        assert exc.value.field == "probabilities"

    def test_distinct_csv_probabilities_accepted(self):
        config = SweepConfig(probabilities=(0.0, 1e-6, 0.5, 1.0), seeds=(1,))
        assert len(config.run_specs()) == 1 + 5 * 4


class TestCsvRoundTrip:
    def test_results_round_trip(self, tmp_path):
        records = run_sweep(tiny_config(tmp_path))
        path = str(tmp_path / "results.csv")
        write_results_csv(path, records)
        parsed = read_results_csv(path)
        assert len(parsed) == len(records)
        for original, loaded in zip(records, parsed):
            assert loaded.channel is original.channel
            assert loaded.probability == original.probability
            assert loaded.seed == original.seed
            assert len(loaded.cost) == len(original.cost)
            np.testing.assert_allclose(
                loaded.val_acc, [round(a, 6) for a in original.val_acc], atol=1e-12
            )
        # rows number each run's steps from 1
        rows = [line.split(",") for line in open(path).read().splitlines()[1:]]
        assert [int(row[4]) for row in rows] == [*range(1, 5)] * len(records)

    def test_row_format_six_decimals(self, tmp_path):
        record = synthetic_record(ChannelKind.PHASE_FLIP, 0.1, 3, [0.5])
        path = str(tmp_path / "run.csv")
        write_results_csv(path, [record])
        header, row = open(path).read().splitlines()
        assert header == CSV_HEADER
        assert row == "phase-flip_0.1_3,phase-flip,0.100000,3,1,0.100000,0.500000,0.500000"

    def test_negative_zero_config_writes_the_zero_label(self, tmp_path):
        features = np.array([[0.5, 1.0], [2.5, 1.0]])
        labels = np.array([-1, 1])
        config = AnsatzConfig(ChannelKind.BIT_FLIP, -0.0, n_layers=1)
        record = train(features, labels, features, labels, config, TrainSettings(steps=1), seed=1)
        path = str(tmp_path / "run.csv")
        write_results_csv(path, [record])
        assert open(path).read().splitlines()[1].startswith("bit-flip_0_1,bit-flip,0.000000,1,1,")

    def test_rejects_a_restarted_step_sequence(self, tmp_path):
        # two runs' CSVs concatenated would otherwise read as one longer run
        path = str(tmp_path / "results.csv")
        write_results_csv(path, [synthetic_record(ChannelKind.BIT_FLIP, 0.5, 1, [0.5] * 3)])
        rows = open(path).read().splitlines(keepends=True)
        with open(path, "a") as f:
            f.writelines(rows[1:])
        with pytest.raises(ValueError, match="line 5: run bit-flip_0.5_1 has step 1 after 3"):
            read_results_csv(path)

    @pytest.mark.parametrize(
        "row",
        [
            "bit-flip_0.5_1,depolarizing,0.500000,1,2,0.1,0.5,0.5",
            "bit-flip_0.5_1,bit-flip,0.300000,1,2,0.1,0.5,0.5",
            "bit-flip_0.5_1,bit-flip,0.500000,7,2,0.1,0.5,0.5",
        ],
        ids=["channel", "prob", "seed"],
    )
    def test_rejects_a_run_id_whose_cell_changes(self, tmp_path, row):
        path = tmp_path / "results.csv"
        path.write_text(f"{CSV_HEADER}\nbit-flip_0.5_1,bit-flip,0.500000,1,1,0.1,0.5,0.5\n{row}\n")
        with pytest.raises(ValueError, match="line 3: run bit-flip_0.5_1 changes its channel"):
            read_results_csv(str(path))

    def test_rejects_a_run_copied_under_another_id(self, tmp_path):
        # summarize would count the copy as a second seed of the cell
        path = str(tmp_path / "results.csv")
        write_results_csv(path, [synthetic_record(ChannelKind.BIT_FLIP, 0.5, 1, [0.5] * 3)])
        rows = open(path).read().splitlines(keepends=True)
        with open(path, "a") as f:
            f.writelines(row.replace("bit-flip_0.5_1", "copy_of_run") for row in rows[1:])
        with pytest.raises(
            ValueError, match="line 5: run copy_of_run repeats the channel, prob and seed of run "
            "bit-flip_0.5_1"
        ):
            read_results_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,bit-flip,nan,1,1,0.1,0.5,0.5", "prob: nan outside [0, 1]"),
            ("x,depolarizing,1.500000,1,1,0.1,0.5,0.5", "prob: 1.500000 outside [0, 1]"),
            ("x,none,0.300000,1,1,0.1,0.5,0.5", "prob: must be 0 for channel none, got 0.3"),
        ],
        ids=["nan", "above-one", "noise-free"],
    )
    def test_rejects_a_prob_no_run_can_have(self, tmp_path, row, message):
        # NaN equals nothing, so summarize would split one cell's seeds
        path = tmp_path / "results.csv"
        path.write_text(f"{CSV_HEADER}\nnone_0_1,none,0.000000,1,1,0.1,0.5,0.5\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"line 3: {message}")):
            read_results_csv(str(path))

    # test_cli's summarize cases cover the channel, step and cost fields
    @pytest.mark.parametrize(
        "row, message",
        [
            ("none_0_1,none,zero,1,2,0.1,0.5,0.5", "could not convert string to float: 'zero'"),
            ("none_0_1,none,0.000000,1.5,2,0.1,0.5,0.5", "invalid literal for int()"),
            ("none_0_1,none,0.000000,1,2,0.1,0.5,high", "could not convert string to float"),
        ],
        ids=["prob", "seed", "val_acc"],
    )
    def test_field_errors_name_their_line(self, tmp_path, row, message):
        path = tmp_path / "results.csv"
        path.write_text(f"{CSV_HEADER}\nnone_0_1,none,0.000000,1,1,0.1,0.5,0.5\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"line 3: {message}")):
            read_results_csv(str(path))

    def test_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            read_results_csv(str(path))


class TestSummarize:
    def test_threshold_and_mean(self):
        records = [
            synthetic_record(ChannelKind.BIT_FLIP, 0.2, 1, [1.0] * 10),
            synthetic_record(ChannelKind.BIT_FLIP, 0.2, 2, [0.7] * 10),
            synthetic_record(ChannelKind.DEPOLARIZING, 0.2, 1, [0.5] * 10),
        ]
        cells = summarize(records)
        assert cells[0].channel is ChannelKind.BIT_FLIP
        assert cells[0].mean_final_val_acc == pytest.approx(0.85)
        assert cells[0].trainable
        assert not cells[1].trainable

    def test_boundary_is_inclusive(self):
        records = [synthetic_record(ChannelKind.PHASE_FLIP, 1.0, 1, [0.8] * 10)]
        assert summarize(records)[0].trainable

    def test_window_uses_final_steps(self):
        record = synthetic_record(ChannelKind.PHASE_FLIP, 0.5, 1, [0.0] * 90 + [1.0] * 10)
        assert summarize([record])[0].mean_final_val_acc == pytest.approx(1.0)

    def test_pure_function_of_results_csv(self, tmp_path):
        records = run_sweep(tiny_config(tmp_path))
        path = str(tmp_path / "results.csv")
        write_results_csv(path, records)
        direct = summarize(records)
        via_csv = summarize(read_results_csv(path))
        assert [c.channel for c in direct] == [c.channel for c in via_csv]
        for a, b in zip(direct, via_csv):
            assert a.trainable == b.trainable
            assert a.mean_final_val_acc == pytest.approx(b.mean_final_val_acc, abs=1e-6)


class TestSweepOutputs:
    def test_file_set(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        records = run_sweep(config)
        write_sweep_outputs(records, config.out_dir)
        names = sorted(os.listdir(config.out_dir))
        assert names == [
            "curves_depolarizing_0.5.svg",
            "curves_none_0.svg",
            "results.csv",
            "run_depolarizing_0.5_1.csv",
            "run_depolarizing_0.5_2.csv",
            "run_none_0_1.csv",
            "run_none_0_2.csv",
            "summary.csv",
        ]

    def test_byte_identical_across_invocations(self, tmp_path):
        config_a = tiny_config(tmp_path / "a")
        config_b = tiny_config(tmp_path / "b", workers=2)
        write_sweep_outputs(run_sweep(config_a), config_a.out_dir)
        write_sweep_outputs(run_sweep(config_b), config_b.out_dir)
        for name in ("results.csv", "summary.csv"):
            a = open(os.path.join(config_a.out_dir, name), "rb").read()
            b = open(os.path.join(config_b.out_dir, name), "rb").read()
            assert a == b

    def test_summary_csv_format(self, tmp_path):
        cells = [
            CellSummary(ChannelKind.NONE, 0.0, 2, 1.0, True),
            CellSummary(ChannelKind.DEPOLARIZING, 0.5, 2, 0.25, False),
        ]
        path = str(tmp_path / "summary.csv")
        write_summary_csv(path, cells)
        lines = open(path).read().splitlines()
        assert lines[0] == "channel,prob,seeds,mean_final_val_acc,trainable"
        assert lines[1] == "none,0.000000,2,1.000000,true"
        assert lines[2] == "depolarizing,0.500000,2,0.250000,false"
