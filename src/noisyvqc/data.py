"""Iris ingestion, feature scaling, and stratified splitting.

The classifier works on the two linearly separable Iris classes, setosa
(label -1) and versicolor (label +1), described by petal length and
petal width.  :func:`preprocess` takes both sides of a seed's
:func:`split` and min-max scales them to encoding angles in [0, pi] by
the training side's range alone.  Two features fill the two qubits
exactly, so the padding half of "padding and normalizing" is a no-op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._iris import IRIS_SETOSA_VERSICOLOR_CSV

#: columns of the canonical 5-column Iris CSV kept as model features
FEATURE_COLUMNS = (2, 3)  # petal_length, petal_width

#: angle range of the encoded features
ANGLE_MAX = math.pi

#: fraction of each class on the training side of the split
TRAIN_FRACTION = 0.75

_SPECIES_LABELS = {"setosa": -1, "versicolor": 1, "virginica": None}


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (N, 2) in cm and labels (N,) in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def _parse_species(token: str, line_no: int) -> int | None:
    name = token.strip().lower()
    if name.startswith("iris-"):
        name = name[len("iris-"):]
    if name not in _SPECIES_LABELS:
        raise ValueError(f"line {line_no}: unknown species {token!r}")
    return _SPECIES_LABELS[name]


def load_iris_binary(source: str | None = None) -> Dataset:
    """Load the setosa/versicolor subset from a CSV path or the embedded copy.

    The file must be the standard 5-column Iris CSV (sepal length,
    sepal width, petal length, petal width, species), optionally with a
    header row; a UTF-8 byte-order mark is ignored.  Species matching
    is case-insensitive and the "Iris-" prefix is optional.  Virginica
    rows are dropped; anything else unrecognized is an error, as is
    ending up with fewer than two classes.
    """
    if source is None:
        text = IRIS_SETOSA_VERSICOLOR_CSV
    else:
        with open(source, "r", encoding="utf-8-sig") as f:
            text = f.read()

    col_a, col_b = FEATURE_COLUMNS
    species: dict[str, int | None] = {}  # raw species token -> label
    features: list[tuple[float, float]] = []
    labels: list[int] = []
    # float() and _parse_species accept padded fields, so no field is stripped
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split(",")
        if len(fields) == 1 and not line.strip():
            continue  # blank line
        if len(fields) != 5:
            raise ValueError(f"line {line_no}: expected 5 columns, got {len(fields)}")
        if line_no == 1:
            try:
                float(fields[0])
            except ValueError:
                continue  # header row
        try:
            a, b = float(fields[col_a]), float(fields[col_b])
        except ValueError as exc:
            raise ValueError(f"line {line_no}: malformed numeric field") from exc
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"line {line_no}: non-finite feature value")
        token = fields[4]
        if token in species:
            label = species[token]
        else:
            label = species[token] = _parse_species(token, line_no)
        if label is not None:
            features.append((a, b))
            labels.append(label)

    labels_arr = np.array(labels, dtype=int)
    if len(np.unique(labels_arr)) < 2:
        raise ValueError("fewer than 2 classes present")
    return Dataset(features=np.array(features, dtype=float), labels=labels_arr)


def preprocess(train: Dataset, val: Dataset) -> tuple[np.ndarray, ...]:
    """Scale both sides of a split by the training side's per-feature range.

    Features map linearly from the training [min, max] to angles in
    [0, pi]; validation values outside that range clamp to its ends so
    encoding angles never wrap.  Returns ``(train_features, train_labels,
    val_features, val_labels)``, the first four arguments of
    :func:`training.train`.
    """
    lo, hi = train.features.min(axis=0), train.features.max(axis=0)
    if np.any(hi <= lo):
        raise ValueError("each feature needs max > min on the training split")
    train_x, val_x = (
        np.clip((x - lo) / (hi - lo), 0.0, 1.0) * ANGLE_MAX for x in (train.features, val.features)
    )
    return train_x, train.labels, val_x, val.labels


def _train_share(count: int) -> int:
    """Samples of a class of ``count`` that go to the training side."""
    return math.ceil(TRAIN_FRACTION * count)


def check_split(dataset: Dataset) -> None:
    """Raise ``ValueError`` if :func:`split` would leave a side empty.

    The sides' sizes depend only on the class counts, so one check covers
    every seed.
    """
    counts = [int(np.count_nonzero(dataset.labels == label)) for label in (-1, 1)]
    n_train = sum(_train_share(count) for count in counts)
    if not 0 < n_train < sum(counts):
        raise ValueError(
            f"classes of {counts[0]} and {counts[1]} rows split into {n_train} training "
            f"and {sum(counts) - n_train} validation rows; neither side may be empty"
        )


def split(dataset: Dataset, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Stratified train/validation split, deterministic for a given seed.

    Each class contributes ``ceil(TRAIN_FRACTION * count)`` samples to the
    training side; :func:`check_split` rejects a dataset that would leave
    a side empty.
    """
    check_split(dataset)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    val_idx: list[int] = []
    for label in (-1, 1):
        members = np.flatnonzero(dataset.labels == label)
        perm = rng.permutation(members)
        n_train = _train_share(len(members))
        train_idx.extend(perm[:n_train])
        val_idx.extend(perm[n_train:])
    train_idx = np.sort(np.array(train_idx))
    val_idx = np.sort(np.array(val_idx))
    return (
        Dataset(features=dataset.features[train_idx], labels=dataset.labels[train_idx]),
        Dataset(features=dataset.features[val_idx], labels=dataset.labels[val_idx]),
    )
