"""Which program functions are traced, and the per-layer metrics from their spans.

Each traced function is wrapped at the module attribute its caller
looks up, and its span is named ``<module>.<attribute>``.  The layers
are the production modules: ``data`` (loaded, split and scaled through
``sweep``), ``training``, ``evaluator`` (which builds ``channels``),
``sweep`` and ``svg``.

Per-layer metrics and their bases (``runs`` counts ``sweep.train``
spans, ``steps`` counts ``training.nesterov_step`` spans, rows are the
batch rows passed to ``training.ansatz_expectations``):

=============================  =====  ===========================================
metric                         unit   base
=============================  =====  ===========================================
evaluator.superop_calls        count  ``static_layer_superop`` calls per run
evaluator.superop_ms           ms     time in ``static_layer_superop`` per run
evaluator.us_per_row.gradient  us     evaluator time per row, gradient batches
evaluator.us_per_row.readout   us     evaluator time per row, accuracy readouts
evaluator.gates_us_per_row     us     self time of rx/rot/kron per evaluated row
evaluator.self_us_per_row      us     evaluator self time per evaluated row
training.gradient_ms_p50       ms     median ``cost_gradient`` call
training.gradient_rows         count  evaluator rows per ``cost_gradient`` call
training.readout_ms_p50        ms     median accuracy readout call
training.loop_self_ms          ms     ``train`` self time per step
data.load_calls                count  ``load_iris_binary`` calls per run
data.load_ms                   ms     time in ``load_iris_binary`` per run
data.prep_ms                   ms     time in ``split`` + ``preprocess`` per run
sweep.write_s                  s      ``write_sweep_outputs`` per sweep
svg.emit_ms                    ms     time in ``emit_svg`` per sweep
=============================  =====  ===========================================

An evaluator call is a gradient batch when a ``cost_gradient`` span
encloses it, at any depth, and an accuracy readout otherwise.  The
evaluator self time covers what ``ansatz_expectations`` does inline:
the batched 4x4 conjugation, the tail product and the readout.

Every base must be non-empty: a traced sweep without runs, steps,
gradient calls or readouts raises instead of reading 0, which for a
lower-is-better metric would look like a perfect improvement.
"""

from __future__ import annotations

import importlib
import statistics

from tracer import Span, Tracer, self_times

#: (module name under ``noisyvqc``, attribute, counts rows)
TRACED = (
    ("sweep", "train", False),
    ("sweep", "load_iris_binary", False),
    ("sweep", "split", False),
    ("sweep", "preprocess", False),
    ("sweep", "emit_svg", False),
    ("sweep", "write_sweep_outputs", False),
    ("training", "cost_gradient", False),
    ("training", "nesterov_step", False),
    ("training", "ansatz_expectations", True),
    ("evaluator", "static_layer_superop", False),
    ("evaluator", "rx_matrices", False),
    ("evaluator", "rot_matrices", False),
    ("evaluator", "kron_batch", False),
    ("evaluator", "build_channel", False),
)

GATES = ("evaluator.rx_matrices", "evaluator.rot_matrices", "evaluator.kron_batch")
GRADIENT = "training.cost_gradient"


def install_all(tracer: Tracer) -> None:
    """Wrap every function in :data:`TRACED`."""
    for module_name, attr, count_rows in TRACED:
        module = importlib.import_module(f"noisyvqc.{module_name}")
        tracer.install(module, attr, f"{module_name}.{attr}", count_rows)


def layer_metrics(spans: list[Span], n_sweeps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the spans of ``n_sweeps`` traced sweeps."""
    own = self_times(spans)
    by_seq = {s.seq: s for s in spans}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.end - s.start for s in named(name))

    def self_total(names):
        return sum(own[s.seq] for n in names for s in named(n))

    def under_gradient(s):
        parent = by_seq.get(s.parent)
        while parent is not None:
            if parent.name == GRADIENT:
                return True
            parent = by_seq.get(parent.parent)
        return False

    evals = named("training.ansatz_expectations")
    grad = [s for s in evals if under_gradient(s)]
    readout = [s for s in evals if not under_gradient(s)]
    gradient_calls = named(GRADIENT)
    bases = {
        "runs": len(named("sweep.train")),
        "steps": len(named("training.nesterov_step")),
        "gradient calls": len(gradient_calls),
        "gradient rows": sum(s.rows for s in grad),
        "readout calls": len(readout),
        "readout rows": sum(s.rows for s in readout),
        "sweeps": n_sweeps,
    }
    empty = [name for name, n in bases.items() if n <= 0]
    if empty:
        raise ValueError(f"traced spans hold no {', '.join(empty)}")
    runs, steps = bases["runs"], bases["steps"]
    rows_grad, rows_readout = bases["gradient rows"], bases["readout rows"]
    rows_all = rows_grad + rows_readout

    def p50_ms(group):
        return 1e3 * statistics.median([s.end - s.start for s in group])

    return {
        "evaluator.superop_calls": (len(named("evaluator.static_layer_superop")) / runs, "count"),
        "evaluator.superop_ms": (1e3 * total("evaluator.static_layer_superop") / runs, "ms"),
        "evaluator.us_per_row.gradient": (1e6 * sum(s.end - s.start for s in grad) / rows_grad, "us"),
        "evaluator.us_per_row.readout": (1e6 * sum(s.end - s.start for s in readout) / rows_readout, "us"),
        "evaluator.gates_us_per_row": (1e6 * self_total(GATES) / rows_all, "us"),
        "evaluator.self_us_per_row": (1e6 * self_total(["training.ansatz_expectations"]) / rows_all, "us"),
        "training.gradient_ms_p50": (p50_ms(gradient_calls), "ms"),
        "training.gradient_rows": (rows_grad / len(gradient_calls), "count"),
        "training.readout_ms_p50": (p50_ms(readout), "ms"),
        "training.loop_self_ms": (1e3 * self_total(["sweep.train"]) / steps, "ms"),
        "data.load_calls": (len(named("sweep.load_iris_binary")) / runs, "count"),
        "data.load_ms": (1e3 * total("sweep.load_iris_binary") / runs, "ms"),
        "data.prep_ms": (1e3 * (total("sweep.split") + total("sweep.preprocess")) / runs, "ms"),
        "sweep.write_s": (total("sweep.write_sweep_outputs") / n_sweeps, "s"),
        "svg.emit_ms": (1e3 * total("sweep.emit_svg") / n_sweeps, "ms"),
    }
