"""Minimal deterministic SVG line charts of training curves.

Hand-rolled rather than delegated to a plotting library so that the
emitted bytes depend only on the input records, which keeps sweep
output byte-reproducible.  One chart shows the train and validation
accuracy of a single configuration over the step axis; when several
runs of the same configuration (different seeds) are given, the curves
show the per-step mean across seeds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .training import RunRecord

WIDTH = 720
HEIGHT = 450
MARGIN_LEFT = 62
MARGIN_RIGHT = 18
MARGIN_TOP = 42
MARGIN_BOTTOM = 48

TRAIN_COLOR = "#1f77b4"
VAL_COLOR = "#ff7f0e"


def _mean_curves(records: Sequence[RunRecord]) -> tuple[np.ndarray, np.ndarray]:
    lengths = {len(r.val_acc) for r in records}
    if lengths == {0}:
        raise ValueError("records contain no steps")
    if len(lengths) != 1:
        raise ValueError("records must all have the same number of steps")
    train = np.mean([r.train_acc for r in records], axis=0)
    val = np.mean([r.val_acc for r in records], axis=0)
    return train, val


def _polyline(xs: np.ndarray, ys: np.ndarray, color: str) -> str:
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'


def emit_svg(records: Sequence[RunRecord]) -> str:
    """Render one configuration's accuracy curves as an SVG document.

    ``records`` is a non-empty group of runs sharing one (channel,
    probability) configuration; a single run is a group of one.
    """
    if not records:
        raise ValueError("at least one record is required")
    configs = {(r.channel, r.probability) for r in records}
    if len(configs) != 1:
        raise ValueError(f"records span several configurations: {configs}")
    channel, prob = next(iter(configs))
    train, val = _mean_curves(records)
    n_steps = len(train)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x_px(step: float) -> float:
        return MARGIN_LEFT + plot_w * step / n_steps

    def y_px(acc: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - acc)

    steps_axis = np.arange(1, n_steps + 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{channel.value} p={prob:g}</text>',
    ]
    # horizontal gridlines and y labels at 0, 0.25, ..., 1.0
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_px(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )
    # x labels at quarters of the step axis
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        step = frac * n_steps
        x = x_px(step)
        parts.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{step:g}</text>'
        )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" '
        f'x2="{WIDTH - MARGIN_RIGHT}" y2="{HEIGHT - MARGIN_BOTTOM}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:.0f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">step</text>'
    )
    parts.append(
        f'<text x="16" y="{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.0f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.0f})">'
        f"accuracy</text>"
    )
    parts.append(_polyline(np.array([x_px(s) for s in steps_axis]), np.array([y_px(a) for a in train]), TRAIN_COLOR))
    parts.append(_polyline(np.array([x_px(s) for s in steps_axis]), np.array([y_px(a) for a in val]), VAL_COLOR))
    # legend, top right of the plot area
    lx = WIDTH - MARGIN_RIGHT - 150
    for i, (label, color) in enumerate((("train", TRAIN_COLOR), ("validation", VAL_COLOR))):
        ly = MARGIN_TOP + 14 + 18 * i
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
