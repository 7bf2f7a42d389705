import numpy as np
import pytest

from idx_writer import save_idx
from ptsparse.config import ExperimentConfig
from ptsparse.data import (OFFSET, IdxFormatError, Splits, idx_splits, load_idx,
                           sample_calibration, synthetic_splits)


def splits_of(**settings):
    """The synthetic splits of an ExperimentConfig with these settings; its
    calibration size, which the splits do not read, fits each train_size here."""
    return synthetic_splits(ExperimentConfig(calib_size=16, **settings))


class TestIdx:
    @pytest.mark.parametrize("dtype", ["u1", "i1", "i2", "i4", "f4", "f8"])
    def test_round_trip_all_dtypes(self, tmp_path, rng, dtype):
        arr = (rng.integers(0, 100, (3, 4, 5)).astype(dtype)
               if dtype[0] in "ui" else rng.standard_normal((3, 4, 5)).astype(dtype))
        path = tmp_path / "a.idx"
        save_idx(path, arr)
        back = load_idx(path)
        np.testing.assert_array_equal(back, arr)
        assert back.dtype == arr.dtype

    def test_hand_built_file(self, tmp_path):
        # 0x08 = unsigned byte, 1 dim of length 3, payload 1 2 3
        path = tmp_path / "hand.idx"
        path.write_bytes(bytes([0, 0, 0x08, 1, 0, 0, 0, 3, 1, 2, 3]))
        np.testing.assert_array_equal(load_idx(path), [1, 2, 3])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(bytes([1, 0, 0x08, 1, 0, 0, 0, 1, 7]))
        with pytest.raises(IdxFormatError):
            load_idx(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(bytes([0, 0, 0x42, 1, 0, 0, 0, 1, 7]))
        with pytest.raises(IdxFormatError):
            load_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(bytes([0, 0, 0x08, 1, 0, 0, 0, 5, 1, 2]))
        with pytest.raises(IdxFormatError):
            load_idx(path)

    def test_header_cut_inside_dimensions(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(bytes([0, 0, 0x08, 3, 0, 0, 0, 5, 0, 0]))
        with pytest.raises(IdxFormatError, match="header ends inside its 3 dimensions"):
            load_idx(path)

    def test_unrepresentable_dtype(self, tmp_path):
        with pytest.raises(IdxFormatError):
            save_idx(tmp_path / "x.idx", np.zeros(3, dtype=np.complex128))


class TestSyntheticSplits:
    def test_shapes_and_label_range(self):
        s = splits_of(classes=4, image_size=8, train_size=64, eval_size=32, data_seed=0)
        assert s.train_x.shape == (64, 1, 8, 8)
        assert s.eval_x.shape == (32, 1, 8, 8)
        assert s.train_y.min() >= 0 and s.train_y.max() < 4
        assert s.classes == 4

    def test_deterministic_per_seed(self):
        a = splits_of(train_size=32, eval_size=16, data_seed=3)
        b = splits_of(train_size=32, eval_size=16, data_seed=3)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.eval_y, b.eval_y)

    def test_seeds_differ(self):
        a = splits_of(train_size=32, eval_size=16, data_seed=3)
        b = splits_of(train_size=32, eval_size=16, data_seed=4)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_background_offset_shifts_mean(self):
        s = splits_of(train_size=128, eval_size=16, data_seed=0)
        assert s.train_x.mean() == pytest.approx(OFFSET, abs=0.3)

    def test_classes_are_learnable_by_nearest_template(self):
        # sanity on signal level: noisy samples stay closest to their own
        # class template far above chance
        s = splits_of(classes=5, train_size=200, eval_size=16, data_seed=1)
        temps = np.stack([s.train_x[s.train_y == k].mean(axis=0)
                          for k in range(5)])
        d = ((s.train_x[:, None] - temps[None]) ** 2).sum(axis=(2, 3, 4))
        acc = (d.argmin(axis=1) == s.train_y).mean()
        assert acc > 0.6

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            Splits(np.zeros((2, 1)), np.array([0, 5]),
                   np.zeros((1, 1)), np.array([0]), classes=3)


class TestIdxSplits:
    def test_round_trip_through_files(self, tmp_path, rng):
        tx = rng.integers(0, 256, (10, 4, 4)).astype(np.uint8)
        ty = rng.integers(0, 3, 10).astype(np.uint8)
        ex = rng.integers(0, 256, (5, 4, 4)).astype(np.uint8)
        ey = rng.integers(0, 3, 5).astype(np.uint8)
        paths = {}
        for name, arr in [("tx", tx), ("ty", ty), ("ex", ex), ("ey", ey)]:
            paths[name] = tmp_path / f"{name}.idx"
            save_idx(paths[name], arr)
        s = idx_splits(ExperimentConfig(
            dataset="idx", classes=3, idx_train_images=str(paths["tx"]),
            idx_train_labels=str(paths["ty"]), idx_eval_images=str(paths["ex"]),
            idx_eval_labels=str(paths["ey"])))
        assert s.train_x.shape == (10, 1, 4, 4)
        assert s.train_x.max() <= 1.0  # scaled by the max pixel value
        np.testing.assert_array_equal(s.train_y, ty.astype(np.int64))
        assert s.classes == 3

    @pytest.mark.parametrize("split", ["train", "eval"])
    def test_label_count_must_match_image_count(self, split):
        x, y = np.zeros((4, 1, 2, 2)), np.zeros(4, dtype=np.int64)
        arrays = [x, y, x, y]
        arrays[1 if split == "train" else 3] = np.zeros(5, dtype=np.int64)
        with pytest.raises(ValueError, match=f"{split} split: 4 images but 5 labels"):
            Splits(*arrays, classes=3)

    @pytest.mark.parametrize("split", ["train", "eval"])
    def test_labels_are_one_per_image(self, split):
        x, y = np.zeros((4, 1, 2, 2)), np.zeros(4, dtype=np.int64)
        arrays = [x, y, x, y]
        arrays[1 if split == "train" else 3] = np.zeros((4, 1), dtype=np.int64)
        with pytest.raises(ValueError, match=rf"{split} labels of shape \(4, 1\)"):
            Splits(*arrays, classes=3)


class TestSampleCalibration:
    def _splits(self, seed=0):
        return splits_of(classes=4, image_size=8, train_size=256, eval_size=64,
                         data_seed=seed)

    def test_size_and_determinism(self):
        s = self._splits()
        a = sample_calibration(s, 64, seed=1)
        b = sample_calibration(s, 64, seed=1)
        assert len(a.inputs) == 64
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_selection(self):
        s = self._splits()
        a = sample_calibration(s, 64, seed=1)
        b = sample_calibration(s, 64, seed=2)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_balanced_class_counts(self):
        s = self._splits()
        calib = sample_calibration(s, 64, seed=0)
        counts = np.bincount(calib.labels, minlength=4)
        assert counts.min() >= 64 // 4 - 1  # up to one top-up per class

    def test_rows_come_from_train_split(self):
        s = self._splits()
        calib = sample_calibration(s, 32, seed=0)
        train_rows = {r.tobytes() for r in s.train_x}
        assert all(r.tobytes() in train_rows for r in calib.inputs)

    def test_eval_overlap_rejected(self):
        s = self._splits()
        leaky = Splits(np.concatenate([s.train_x, s.eval_x[:8]]),
                       np.concatenate([s.train_y, s.eval_y[:8]]),
                       s.eval_x, s.eval_y, s.classes)
        with pytest.raises(ValueError, match="overlap"):
            # a draw of the whole train split takes eval rows 0..7 too
            sample_calibration(leaky, len(leaky.train_x), seed=0)

    def test_oversized_request_rejected(self):
        s = self._splits()
        with pytest.raises(ValueError):
            sample_calibration(s, 10_000, seed=0)
