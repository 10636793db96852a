"""Train the classifier with and without noise, end to end.

Loads the embedded Iris subset, splits and scales it, trains a
noise-free run and a phase-damping run on identical seeds, prints
digest lines of both histories, and writes an SVG accuracy chart.

Run with:  python demos/04_training_run.py
"""

from noisyvqc import ChannelKind
from noisyvqc.sweep import execute_run
from noisyvqc.svg import emit_svg


def digest(record, every=10):
    accs, cost = record.val_acc, record.cost
    name = f"{record.channel.value} p={record.probability:g}"
    print(f"\n{name}: final-10 mean validation accuracy {record.final_val_accuracy():.3f}")
    print("  step:      " + "".join(f"{i:>6}" for i in range(every, 101, every)))
    print("  val acc:   " + "".join(f"{accs[i - 1]:>6.2f}" for i in range(every, 101, every)))
    print("  batch cost:" + "".join(f"{cost[i - 1]:>6.2f}" for i in range(every, 101, every)))


# the run seed pins the split, the parameter init, and the batch draws
baseline = execute_run(ChannelKind.NONE, 0.0, seed=1)
noisy = execute_run(ChannelKind.PHASE_DAMPING, 0.2, seed=1)
struggling = execute_run(ChannelKind.DEPOLARIZING, 0.3, seed=1)

digest(baseline)
digest(noisy)
digest(struggling)

path = "curves_phase-damping_0.2.svg"
with open(path, "w", encoding="utf-8") as f:
    f.write(emit_svg(noisy))
print(f"\nwrote {path}")
print(
    "\nThe accuracy jump happens when the optimizer escapes the flat region\n"
    "around the zero-rotation initialization; noise stretches that escape,\n"
    "and past a channel-dependent strength it no longer fits in the budget."
)
