import re

import pytest

from noisyvqc.channels import ChannelKind
from noisyvqc.svg import MARGIN_TOP, emit_svg
from noisyvqc.training import RunRecord


def record_with(val_accs, channel=ChannelKind.PHASE_FLIP, prob=0.3, seed=1, train_accs=None):
    train_accs = train_accs if train_accs is not None else val_accs
    return RunRecord(channel, prob, seed, [0.0] * len(val_accs), list(train_accs), list(val_accs))


def polyline_points(svg):
    return [
        [tuple(map(float, pair.split(","))) for pair in match.split()]
        for match in re.findall(r'points="([^"]+)"', svg)
    ]


class TestEmitSvg:
    def test_two_polylines_with_one_vertex_per_step(self):
        svg = emit_svg(record_with([i / 100 for i in range(100)]))
        lines = polyline_points(svg)
        assert len(lines) == 2  # train and validation curves
        assert all(len(points) == 100 for points in lines)

    def test_structure(self):
        svg = emit_svg(record_with([0.5] * 100))
        assert svg.count("<polyline") == 2
        lines = polyline_points(svg)
        assert all(len(points) == 100 for points in lines)
        assert "phase-flip p=0.3" in svg
        assert ">train</text>" in svg
        assert ">validation</text>" in svg
        assert svg.startswith("<svg ")

    def test_constant_unit_accuracy_sits_on_top_gridline(self):
        svg = emit_svg(record_with([1.0] * 20))
        for points in polyline_points(svg):
            ys = {y for _, y in points}
            assert ys == {float(MARGIN_TOP)}

    def test_group_averages_across_seeds(self):
        a = record_with([0.0] * 10, seed=1)
        b = record_with([1.0] * 10, seed=2)
        averaged = emit_svg([a, b])
        halfway = emit_svg(record_with([0.5] * 10))
        assert polyline_points(averaged) == polyline_points(halfway)

    def test_rejects_empty_and_mixed_groups(self):
        with pytest.raises(ValueError):
            emit_svg([])
        with pytest.raises(ValueError):
            emit_svg([record_with([0.5], prob=0.3), record_with([0.5], prob=0.4)])
        with pytest.raises(ValueError):
            emit_svg(record_with([]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="same number"):
            emit_svg([record_with([0.5] * 3), record_with([0.5] * 4)])
