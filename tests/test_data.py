import math

import numpy as np
import pytest

from noisyvqc.data import (
    Dataset,
    check_split,
    load_iris_binary,
    preprocess,
    split,
)


class TestLoadEmbedded:
    def test_counts(self):
        ds = load_iris_binary()
        assert len(ds) == 100
        assert int(np.sum(ds.labels == -1)) == 50
        assert int(np.sum(ds.labels == 1)) == 50

    def test_first_row_mapping(self):
        # canonical first row 5.1,3.5,1.4,0.2,Iris-setosa keeps the petal columns
        ds = load_iris_binary()
        np.testing.assert_allclose(ds.features[0], [1.4, 0.2])
        assert ds.labels[0] == -1

    def test_classes_are_separable_in_petal_length(self):
        ds = load_iris_binary()
        setosa = ds.features[ds.labels == -1, 0]
        versicolor = ds.features[ds.labels == 1, 0]
        assert setosa.max() < versicolor.min()


class TestLoadFromFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "iris.csv"
        path.write_text(text)
        return str(path)

    def test_header_and_prefixless_species(self, tmp_path):
        path = self._write(
            tmp_path,
            "sepal_length,sepal_width,petal_length,petal_width,species\n"
            "5.1,3.5,1.4,0.2,SETOSA\n"
            "7.0,3.2,4.7,1.4,versicolor\n",
        )
        ds = load_iris_binary(path)
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.labels, [-1, 1])

    def test_virginica_rows_dropped(self, tmp_path):
        path = self._write(
            tmp_path,
            "5.1,3.5,1.4,0.2,Iris-setosa\n"
            "7.0,3.2,4.7,1.4,Iris-versicolor\n"
            "6.3,3.3,6.0,2.5,Iris-virginica\n",
        )
        assert len(load_iris_binary(path)) == 2

    def test_only_virginica_rejected(self, tmp_path):
        path = self._write(tmp_path, "6.3,3.3,6.0,2.5,Iris-virginica\n")
        with pytest.raises(ValueError, match="fewer than 2 classes"):
            load_iris_binary(path)

    def test_single_class_rejected(self, tmp_path):
        path = self._write(tmp_path, "5.1,3.5,1.4,0.2,Iris-setosa\n")
        with pytest.raises(ValueError, match="fewer than 2 classes"):
            load_iris_binary(path)

    def test_unknown_species_rejected(self, tmp_path):
        path = self._write(tmp_path, "5.1,3.5,1.4,0.2,Iris-gigantea\n")
        with pytest.raises(ValueError, match="unknown species"):
            load_iris_binary(path)

    def test_malformed_column_count(self, tmp_path):
        path = self._write(tmp_path, "5.1,3.5,1.4,Iris-setosa\n")
        with pytest.raises(ValueError, match="5 columns"):
            load_iris_binary(path)

    def test_malformed_number(self, tmp_path):
        path = self._write(tmp_path, "5.1,3.5,abc,0.2,Iris-setosa\n")
        with pytest.raises(ValueError, match="malformed"):
            load_iris_binary(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        path = self._write(
            tmp_path, f"5.1,3.5,1.4,0.2,Iris-setosa\n7.0,3.2,4.7,{value},Iris-versicolor\n"
        )
        with pytest.raises(ValueError, match="line 2: non-finite feature value"):
            load_iris_binary(path)

    def test_malformed_virginica_row_rejected(self, tmp_path):
        # a dropped class is still checked, and the error names its line
        path = self._write(
            tmp_path,
            "5.1,3.5,1.4,0.2,Iris-setosa\n"
            "7.0,3.2,4.7,1.4,Iris-versicolor\n"
            "6.3,3.3,6.x,2.5,Iris-virginica\n",
        )
        with pytest.raises(ValueError, match="line 3: malformed numeric field"):
            load_iris_binary(path)

    def test_padded_fields_and_mixed_case_species(self, tmp_path):
        path = self._write(
            tmp_path,
            " 5.1 , 3.5 , 1.4 , 0.2 , IRIS-SETOSA \n"
            "7.0,3.2,\t4.7,1.4 ,Iris-Versicolor\n"
            "6.3, 3.3,6.0,2.5,  iris-VIRGINICA\n",
        )
        ds = load_iris_binary(path)
        np.testing.assert_array_equal(ds.features, [[1.4, 0.2], [4.7, 1.4]])
        np.testing.assert_array_equal(ds.labels, [-1, 1])

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = self._write(
            tmp_path,
            "\n   \n5.1,3.5,1.4,0.2,Iris-setosa\n\t\n\n7.0,3.2,4.7,1.4,Iris-versicolor\n  \n",
        )
        ds = load_iris_binary(path)
        np.testing.assert_array_equal(ds.labels, [-1, 1])

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_bytes(
            b"\xef\xbb\xbf5.1,3.5,1.4,0.2,Iris-setosa\n4.9,3.0,1.4,0.2,Iris-setosa\n"
            b"7.0,3.2,4.7,1.4,Iris-versicolor\n6.4,3.2,4.5,1.5,Iris-versicolor\n"
        )
        ds = load_iris_binary(str(path))
        np.testing.assert_array_equal(ds.features[0], [1.4, 0.2])
        np.testing.assert_array_equal(ds.labels, [-1, -1, 1, 1])

    def test_byte_order_mark_before_header_ignored(self, tmp_path):
        text = (
            "sepal_length,sepal_width,petal_length,petal_width,species\n"
            "5.1,3.5,1.4,0.2,Iris-setosa\n7.0,3.2,4.7,1.4,Iris-versicolor\n"
        )
        plain = load_iris_binary(self._write(tmp_path, text))
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        with_bom = load_iris_binary(str(bom))
        np.testing.assert_array_equal(with_bom.features, plain.features)
        np.testing.assert_array_equal(with_bom.labels, plain.labels)

    @pytest.mark.parametrize(
        "row, count",
        [("5.1,3.5,1.4,Iris-setosa", 4), ("5.1,3.5,1.4,0.2,Iris-setosa,1", 6)],
    )
    def test_wrong_column_count_rejected(self, tmp_path, row, count):
        path = self._write(tmp_path, f"7.0,3.2,4.7,1.4,Iris-versicolor\n{row}\n")
        with pytest.raises(ValueError, match=f"line 2: expected 5 columns, got {count}"):
            load_iris_binary(path)


def _rows(features, labels=None):
    """A Dataset of the given feature rows, labelled -1, +1, -1, ... unless given."""
    features = np.asarray(features, dtype=float)
    if labels is None:
        labels = np.where(np.arange(len(features)) % 2, 1, -1)
    return Dataset(features=features, labels=np.asarray(labels))


class TestPreprocess:
    def test_endpoints_and_midpoint(self):
        train_x, _, val_x, _ = preprocess(_rows([[1.0, 10.0], [3.0, 30.0]]), _rows([[2.0, 20.0]]))
        angles = np.concatenate([train_x, val_x])
        np.testing.assert_allclose(angles[0], [0.0, 0.0])
        np.testing.assert_allclose(angles[1], [math.pi, math.pi])
        np.testing.assert_allclose(angles[2], [math.pi / 2, math.pi / 2])

    def test_clamps_outside_training_range(self):
        _, _, angles, _ = preprocess(_rows([[1.0, 10.0], [3.0, 30.0]]), _rows([[0.0, 50.0]]))
        np.testing.assert_allclose(angles[0], [0.0, math.pi])

    def test_outputs_always_in_range(self, rng):
        train = _rows(rng.uniform(-5, 5, size=(40, 2)))
        _, _, angles, _ = preprocess(train, _rows(rng.uniform(-10, 10, size=(200, 2))))
        assert np.all(angles >= 0.0)
        assert np.all(angles <= math.pi)

    def test_degenerate_feature_rejected(self):
        with pytest.raises(ValueError, match="max > min"):
            preprocess(_rows([[1.0, 2.0], [1.0, 3.0]]), _rows([[1.0, 2.5]]))

    def test_labels_pass_through(self):
        train = _rows([[1.0, 10.0], [3.0, 30.0], [2.0, 20.0]], labels=[1, -1, 1])
        val = _rows([[0.0, 50.0], [2.0, 20.0]], labels=[-1, -1])
        _, train_labels, _, val_labels = preprocess(train, val)
        np.testing.assert_array_equal(train_labels, [1, -1, 1])
        np.testing.assert_array_equal(val_labels, [-1, -1])


class TestSplit:
    def test_default_iris_split_counts(self):
        train_ds, val_ds = split(load_iris_binary(), seed=0)
        assert len(train_ds) == 76
        assert len(val_ds) == 24
        assert int(np.sum(train_ds.labels == -1)) == 38
        assert int(np.sum(train_ds.labels == 1)) == 38

    def test_deterministic(self):
        ds = load_iris_binary()
        a = split(ds, seed=42)
        b = split(ds, seed=42)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_partitions_dataset(self):
        ds = load_iris_binary()
        train_ds, val_ds = split(ds, seed=7)
        combined = np.vstack([train_ds.features, val_ds.features])
        assert combined.shape == ds.features.shape
        original = sorted(map(tuple, np.column_stack([ds.features, ds.labels])))
        recombined = sorted(
            map(
                tuple,
                np.column_stack(
                    [combined, np.concatenate([train_ds.labels, val_ds.labels])]
                ),
            )
        )
        assert original == recombined

    def test_small_balanced_split(self):
        # 4 samples per class: ceil(0.75 * 4) = 3 train, 1 validation
        ds = Dataset(
            features=np.arange(16.0).reshape(8, 2),
            labels=np.array([-1, -1, -1, -1, 1, 1, 1, 1]),
        )
        train_ds, val_ds = split(ds, seed=1)
        assert len(train_ds) == 6 and len(val_ds) == 2
        assert set(train_ds.labels) == {-1, 1}
        assert set(val_ds.labels) == {-1, 1}

    def test_class_proportions_within_one(self):
        ds = load_iris_binary()
        train_ds, val_ds = split(ds, seed=3)
        for side in (train_ds, val_ds):
            counts = [int(np.sum(side.labels == label)) for label in (-1, 1)]
            assert abs(counts[0] - counts[1]) <= 1

    def test_empty_side_rejected(self):
        # one sample per class: ceil(0.75 * 1) = 1 leaves no validation sample
        ds = Dataset(features=np.array([[0.0, 0], [1, 0]]), labels=np.array([-1, 1]))
        with pytest.raises(ValueError, match="empty"):
            split(ds, seed=0)

    @pytest.mark.parametrize("counts", [(1, 1), (3, 3), (1, 3), (2, 0)])
    def test_check_split_rejects_every_seed_alike(self, counts):
        # the sides' sizes depend only on the class counts: at most 3 rows
        # per class leave the validation side empty for every seed
        labels = np.array([-1] * counts[0] + [1] * counts[1])
        ds = Dataset(features=np.zeros((len(labels), 2)), labels=labels)
        with pytest.raises(ValueError, match="neither side may be empty"):
            check_split(ds)
        for seed in range(3):
            with pytest.raises(ValueError, match="neither side may be empty"):
                split(ds, seed=seed)

    def test_check_split_accepts_four_rows_in_one_class(self):
        labels = np.array([-1, -1, -1, -1, 1])
        check_split(Dataset(features=np.zeros((5, 2)), labels=labels))
