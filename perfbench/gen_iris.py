"""Deterministic generator of a large Iris-format CSV for the ``large_split`` workload.

Rows follow the five-column Iris layout the loader reads (sepal length,
sepal width, petal length, petal width, species), with a header row and
all three species in shuffled order.  Each species' measurements are
drawn around its real Iris mean and spread and printed with one
decimal, like the original file.  Most rows are virginica, which the
loader parses and then drops: they make the per-run parse a measured
share of a run without growing the training and readout batches,
which only see the setosa and versicolor rows.

The stream comes from ``random.Random(seed)``, whose ``random()`` output
is fixed for an integer seed across Python versions, so the same seed
gives the same bytes.

Usage: ``python3 perfbench/gen_iris.py SEED > iris.csv``
"""

from __future__ import annotations

import random
import sys

HEADER = "sepal_length,sepal_width,petal_length,petal_width,species"

#: per-species column means and standard deviations of the UCI Iris data
SPECIES = (
    ("Iris-setosa", (5.01, 3.43, 1.46, 0.25), (0.35, 0.38, 0.17, 0.11)),
    ("Iris-versicolor", (5.94, 2.77, 4.26, 1.33), (0.52, 0.31, 0.47, 0.20)),
    ("Iris-virginica", (6.59, 2.97, 5.55, 2.03), (0.64, 0.32, 0.55, 0.27)),
)

#: rows per species, in the order of :data:`SPECIES`
ROWS = (1000, 1000, 100_000)


def generate(seed: int) -> str:
    """CSV text with ``ROWS[i]`` rows of species ``SPECIES[i]``."""
    rng = random.Random(seed)
    rows = []
    for (name, means, spreads), count in zip(SPECIES, ROWS):
        for _ in range(count):
            # sum of three uniforms: a bounded, roughly normal draw of unit variance
            values = [
                max(0.1, m + s * 2.0 * (rng.random() + rng.random() + rng.random() - 1.5))
                for m, s in zip(means, spreads)
            ]
            rows.append(",".join(f"{v:.1f}" for v in values) + "," + name)
    rng.shuffle(rows)
    return HEADER + "\n" + "\n".join(rows) + "\n"


if __name__ == "__main__":
    sys.stdout.write(generate(int(sys.argv[1])))
