"""Data pipeline: datasets, loaders, augmentation transforms."""

import numpy as np
import pytest

from repro.nn.data import (
    ArrayDataset,
    Compose,
    DataLoader,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    Subset,
)


def make_dataset(n=10, size=8):
    images = np.arange(n * 3 * size * size, dtype=np.float64).reshape(
        n, 3, size, size
    )
    labels = np.arange(n) % 4
    return ArrayDataset(images, labels)


class TestArrayDataset:
    def test_len_and_getitem(self):
        ds = make_dataset(5)
        assert len(ds) == 5
        image, label = ds[2]
        assert image.shape == (3, 8, 8)
        assert label == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1, 2, 2)), np.zeros(4))

    def test_transform_applied(self):
        ds = make_dataset(3)
        ds.transform = lambda img, rng: img * 0
        image, _ = ds[0]
        assert (image == 0).all()


class TestSubset:
    def test_remaps_indices(self):
        ds = make_dataset(10)
        sub = Subset(ds, [7, 3])
        assert len(sub) == 2
        assert sub[0][1] == 7 % 4


class TestDataLoader:
    def test_batch_shapes(self):
        loader = DataLoader(make_dataset(10), batch_size=4)
        batches = list(loader)
        assert [len(b[1]) for b in batches] == [4, 4, 2]
        assert batches[0][0].shape == (4, 3, 8, 8)

    def test_drop_last(self):
        loader = DataLoader(make_dataset(10), batch_size=4, drop_last=True)
        assert [len(b[1]) for b in loader] == [4, 4]
        assert len(loader) == 2

    def test_len_without_drop(self):
        assert len(DataLoader(make_dataset(10), batch_size=4)) == 3

    def test_shuffle_changes_order_but_not_content(self):
        ds = make_dataset(20)
        loader = DataLoader(ds, batch_size=20, shuffle=True, seed=3)
        labels_a = next(iter(loader))[1]
        plain = DataLoader(ds, batch_size=20)
        labels_b = next(iter(plain))[1]
        assert sorted(labels_a.tolist()) == sorted(labels_b.tolist())
        assert labels_a.tolist() != labels_b.tolist()

    def test_shuffle_varies_between_epochs(self):
        loader = DataLoader(make_dataset(20), batch_size=20, shuffle=True, seed=0)
        first = next(iter(loader))[1].tolist()
        second = next(iter(loader))[1].tolist()
        assert first != second

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(make_dataset(), batch_size=0)

    def test_labels_are_int64(self):
        _, labels = next(iter(DataLoader(make_dataset(4), batch_size=2)))
        assert labels.dtype == np.int64


class TestTransforms:
    def test_random_crop_preserves_shape(self, rng):
        crop = RandomCrop(8, padding=2)
        image = rng.normal(size=(3, 8, 8))
        assert crop(image, rng).shape == (3, 8, 8)

    def test_random_crop_zero_offset_possible(self):
        crop = RandomCrop(4, padding=0)
        image = np.arange(3 * 4 * 4, dtype=float).reshape(3, 4, 4)
        out = crop(image, np.random.default_rng(0))
        np.testing.assert_allclose(out, image)

    def test_flip_probability_one(self, rng):
        flip = RandomHorizontalFlip(p=1.0)
        image = np.arange(3 * 2 * 2, dtype=float).reshape(3, 2, 2)
        np.testing.assert_allclose(flip(image, rng), image[:, :, ::-1])

    def test_flip_probability_zero(self, rng):
        flip = RandomHorizontalFlip(p=0.0)
        image = np.arange(12, dtype=float).reshape(3, 2, 2)
        np.testing.assert_allclose(flip(image, rng), image)

    def test_normalize(self, rng):
        norm = Normalize(mean=[1.0, 2.0, 3.0], std=[2.0, 2.0, 2.0])
        image = np.ones((3, 2, 2))
        out = norm(image, rng)
        np.testing.assert_allclose(out[0], 0.0)
        np.testing.assert_allclose(out[2], -1.0)

    def test_compose_order(self, rng):
        t = Compose([
            lambda img, r: img + 1.0,
            lambda img, r: img * 2.0,
        ])
        np.testing.assert_allclose(t(np.zeros((1, 1, 1)), rng), 2.0)
