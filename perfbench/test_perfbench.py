"""Tests of the benchmark's own code: tracer, layer metrics, generator, reference check.

Run with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import os
import shutil

import pytest

import gen_iris
import layers
import reference
import run
from tracer import Span, Tracer, self_times

run.import_program()

from noisyvqc.channels import ChannelKind  # noqa: E402


def _traced_run(steps: int):
    tracer = Tracer()
    layers.install_all(tracer)
    try:
        from noisyvqc import sweep

        sweep.execute_run(ChannelKind.PHASE_DAMPING, 0.3, 1, steps=steps)
    finally:
        tracer.restore()
    return tracer.spans


def test_restore_puts_back_every_original():
    modules = {name: importlib.import_module(f"noisyvqc.{name}") for name, _, _ in layers.TRACED}
    originals = {(m, a): getattr(modules[m], a) for m, a, _ in layers.TRACED}
    tracer = Tracer()
    layers.install_all(tracer)
    try:
        for (m, a), func in originals.items():
            assert getattr(modules[m], a) is not func
    finally:
        tracer.restore()
    for (m, a), func in originals.items():
        assert getattr(modules[m], a) is func


def test_restore_after_a_raising_call(tmp_path):
    from noisyvqc import sweep

    original = sweep.load_iris_binary
    tracer = Tracer()
    layers.install_all(tracer)
    try:
        with pytest.raises(FileNotFoundError):
            sweep.load_iris_binary(str(tmp_path / "missing.csv"))
    finally:
        tracer.restore()
    assert sweep.load_iris_binary is original
    assert [s.name for s in tracer.spans] == ["sweep.load_iris_binary"]


def test_child_self_times_fit_in_parent():
    spans = _traced_run(steps=2)
    own = self_times(spans)
    by_parent: dict[int, list[Span]] = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    checked = 0
    for s in spans:
        kids = by_parent.get(s.seq, [])
        if not kids:
            continue
        duration = s.end - s.start
        assert sum(own[k.seq] for k in kids) <= duration
        assert own[s.seq] >= 0.0
        assert own[s.seq] + sum(k.end - k.start for k in kids) == pytest.approx(duration)
        checked += 1
    assert checked > 0


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, -1, 0, "parent", 0.0, 10.0, -1),
        Span(1, 0, 0, "a", 1.0, 4.0, -1),
        Span(2, 0, 0, "b", 3.0, 6.0, -1),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_superop_calls_are_two_per_step():
    steps = 3
    metrics = layers.layer_metrics(_traced_run(steps), n_sweeps=1)
    assert metrics["evaluator.superop_calls"][0] == 2 * steps
    assert metrics["data.load_calls"][0] == 1
    assert metrics["training.gradient_rows"][0] == 5 * 61


def test_evaluator_calls_are_classified_by_any_enclosing_gradient():
    spans = [
        Span(0, -1, 0, "training.nesterov_step", 0.0, 4.0, -1),
        Span(1, 0, 0, "training.cost_gradient", 0.5, 3.5, -1),
        Span(2, 1, 0, "helper", 1.0, 3.0, -1),
        Span(3, 2, 0, "training.ansatz_expectations", 1.5, 2.5, 10),
        Span(4, 5, 0, "training.ansatz_expectations", 5.0, 7.0, 100),
        Span(5, -1, 0, "sweep.train", 0.0, 8.0, -1),
    ]
    metrics = layers.layer_metrics(spans, n_sweeps=1)
    assert metrics["evaluator.us_per_row.gradient"][0] == pytest.approx(1e6 * 1.0 / 10)
    assert metrics["evaluator.us_per_row.readout"][0] == pytest.approx(1e6 * 2.0 / 100)
    assert metrics["training.gradient_rows"][0] == 10


def test_empty_base_raises_instead_of_reading_zero():
    spans = _traced_run(steps=2)
    no_readout = [s for s in spans if not (
        s.name == "training.ansatz_expectations" and s.rows != 5 * 61)]
    with pytest.raises(ValueError, match="readout"):
        layers.layer_metrics(no_readout, n_sweeps=1)
    with pytest.raises(ValueError, match="runs"):
        layers.layer_metrics([s for s in spans if s.name != "sweep.train"], n_sweeps=1)


def test_generator_is_byte_stable():
    text = gen_iris.generate(3)
    assert text == gen_iris.generate(3)
    assert text != gen_iris.generate(4)
    assert len(text.splitlines()) == 1 + sum(gen_iris.ROWS)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0569ae97f68dbf004d5f3619a9d29fe0e1c779e1e8adf1d599d83dec2461a8e9"
    )


def test_generated_csv_loads_two_classes(tmp_path):
    from noisyvqc.data import load_iris_binary

    path = tmp_path / "iris.csv"
    path.write_text(gen_iris.generate(0), encoding="utf-8")
    ds = load_iris_binary(str(path))
    assert len(ds) == gen_iris.ROWS[0] + gen_iris.ROWS[1]
    assert sorted(set(ds.labels.tolist())) == [-1, 1]


def _copy_reference(ref_dir, out_dir, edit=None):
    os.makedirs(out_dir)
    shutil.copyfile(ref_dir / "summary.csv", out_dir / "summary.csv")
    with gzip.open(ref_dir / "results.csv.gz", "rt", encoding="utf-8") as f:
        text = f.read()
    if edit:
        text = edit(text)
    (out_dir / "results.csv").write_text(text, encoding="utf-8")


def _edit_row(field: int, new_value):
    def edit(text):
        lines = text.splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split(",")
        fields[field] = new_value(fields[field])
        lines[1] = ",".join(fields) + "\n"
        return "".join(lines)

    return edit


def test_reference_check(tmp_path):
    ref = run.REFERENCE / "grid" / "seed-1"
    _copy_reference(ref, tmp_path / "same")
    assert reference.failed_runs(str(tmp_path / "same"), str(ref)) == []

    drift = _edit_row(5, lambda c: f"{float(c) + 1e-6:.6f}")
    _copy_reference(ref, tmp_path / "drift", drift)
    assert reference.failed_runs(str(tmp_path / "drift"), str(ref)) == []

    too_far = _edit_row(5, lambda c: f"{float(c) + 2e-6:.6f}")
    _copy_reference(ref, tmp_path / "cost", too_far)
    assert reference.failed_runs(str(tmp_path / "cost"), str(ref)) == ["none_0_1"]

    acc = _edit_row(7, lambda a: "0.123456")
    _copy_reference(ref, tmp_path / "acc", acc)
    assert reference.failed_runs(str(tmp_path / "acc"), str(ref)) == ["none_0_1"]

    _copy_reference(ref, tmp_path / "summary")
    with open(tmp_path / "summary" / "summary.csv", "a", encoding="utf-8") as f:
        f.write("\n")
    assert len(reference.failed_runs(str(tmp_path / "summary"), str(ref))) == 11


def test_every_workload_input_has_a_reference():
    for workload in run.WORKLOADS:
        for seed in range(run.LARGE_VARIANTS):
            ref_dir = run.workload_inputs(workload, seed).ref_dir
            assert (ref_dir / "summary.csv").is_file()
            assert (ref_dir / "results.csv.gz").is_file()
