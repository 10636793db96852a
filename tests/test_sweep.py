import os

import numpy as np
import pytest

from noisyvqc.channels import ChannelKind
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
from noisyvqc.training import RunRecord, StepRecord

TINY = dict(steps=4, batch_size=3, n_layers=1)


def tiny_config(out_dir, workers=1, seeds=(1, 2)):
    return SweepConfig(
        channels=(ChannelKind.DEPOLARIZING,),
        probabilities=(0.5,),
        seeds=seeds,
        out_dir=str(out_dir),
        workers=workers,
        **TINY,
    )


def synthetic_record(channel, prob, seed, val_accs):
    record = RunRecord(channel=channel, probability=prob, seed=seed)
    for i, acc in enumerate(val_accs, start=1):
        record.steps.append(StepRecord(step=i, cost=0.1, train_accuracy=acc, val_accuracy=acc))
    return record


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
        assert len(record.steps) == 4

    def test_seed_pins_everything(self):
        a = execute_run(ChannelKind.BIT_FLIP, 0.4, seed=7, **TINY)
        b = execute_run(ChannelKind.BIT_FLIP, 0.4, seed=7, **TINY)
        assert a.steps == b.steps


class TestRunSweep:
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
            assert x.steps == y.steps

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            SweepConfig(seeds=())

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            SweepConfig(probabilities=(0.5, 1.3))

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
        with pytest.raises(ValueError, match=field):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize(
        "grid,field,rid",
        [
            (dict(seeds=(1, 1)), "seeds", "none_0_1"),
            (dict(probabilities=(0.1, 0.1000001)), "probabilities", "bit-flip_0.1_1"),
            (dict(channels=(ChannelKind.BIT_FLIP,) * 2), "channels", "bit-flip_0.5_1"),
            (dict(channels=(ChannelKind.NONE,), probabilities=(0.0,)), "channels", "none_0_1"),
        ],
    )
    def test_rejects_shared_run_id(self, grid, field, rid):
        settings = dict(channels=(ChannelKind.BIT_FLIP,), probabilities=(0.5,), seeds=(1,))
        with pytest.raises(SettingError, match=rid) as exc:
            SweepConfig(**{**settings, **grid})
        assert exc.value.field == field


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
            assert [s.step for s in loaded.steps] == [s.step for s in original.steps]
            np.testing.assert_allclose(
                [s.val_accuracy for s in loaded.steps],
                [round(s.val_accuracy, 6) for s in original.steps],
                atol=1e-12,
            )

    def test_row_format_six_decimals(self, tmp_path):
        record = synthetic_record(ChannelKind.PHASE_FLIP, 0.1, 3, [0.5])
        path = str(tmp_path / "run.csv")
        write_results_csv(path, [record])
        header, row = open(path).read().splitlines()
        assert header == CSV_HEADER
        assert row == "phase-flip_0.1_3,phase-flip,0.100000,3,1,0.100000,0.500000,0.500000"

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
