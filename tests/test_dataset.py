import json

import numpy as np
import pytest

from protoloc import dataset as ds
from protoloc.dataset import DatasetSpec, InsufficientData


def small_spec(**kw):
    defaults = dict(per_class_count=20)
    defaults.update(kw)
    return DatasetSpec(**defaults)


class TestSpecValidation:
    def test_default_is_twelve_classes_five_two_five(self):
        spec = DatasetSpec()
        assert len(spec.classes) == 12
        shapes = {s for s, _ in spec.classes}
        colors = {c for _, c in spec.classes}
        assert len(shapes) == 4 and len(colors) == 3
        split_map = spec.split_map
        assert sorted(len(v) for v in split_map.values()) == [2, 5, 5]
        assert len(split_map["train"]) == 5 and len(split_map["test"]) == 5
        # every shape is seen during training
        train_shapes = {spec.classes[i][0] for i in split_map["train"]}
        assert train_shapes == shapes

    def test_rejects_gray_class_color(self):
        with pytest.raises(ValueError, match="gray"):
            DatasetSpec(classes=(("circle", (0.5, 0.5, 0.55)),),
                        splits=(("train", (0,)),))

    def test_rejects_split_gaps(self):
        with pytest.raises(ValueError, match="cover"):
            DatasetSpec(classes=(("circle", (0.9, 0.1, 0.1)),
                                 ("square", (0.1, 0.9, 0.1))),
                        splits=(("train", (0,)),))

    def test_round_trips_through_dict(self):
        spec = DatasetSpec()
        assert DatasetSpec.from_dict(spec.to_dict()) == spec


class TestRenderSample:
    def test_same_rng_state_bit_identical(self):
        spec = small_spec()
        a = ds.render_sample(spec, 3, np.random.default_rng(99))
        b = ds.render_sample(spec, 3, np.random.default_rng(99))
        np.testing.assert_array_equal(a.image, b.image)
        assert a.gt_box == b.gt_box

    def test_box_within_bounds_and_values_in_range(self):
        spec = small_spec()
        for c in range(12):
            for i in range(25):
                s = ds.render_sample(spec, c, np.random.default_rng((5, c, i)))
                assert 0 <= s.gt_box.y0 <= s.gt_box.y1 < spec.image_size
                assert 0 <= s.gt_box.x0 <= s.gt_box.x1 < spec.image_size
                assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_class_color_inside_box_and_distractors_disjoint(self):
        spec = small_spec()
        rng_index = 0
        for c in range(len(spec.classes)):
            color = np.asarray(spec.classes[c][1])
            for i in range(84):          # ~1000 renders across all classes
                rng_index += 1
                s = ds.render_sample(spec, c, np.random.default_rng((7, c, i)))
                crop = s.image[s.gt_box.y0:s.gt_box.y1 + 1,
                               s.gt_box.x0:s.gt_box.x1 + 1]
                hits = np.all(crop == color, axis=2)
                assert hits.any(), "class color must appear inside the box"
                # distractor pixels are neutral gray: r == g == b; no class
                # color is gray, so the families never collide
                flat = s.image.reshape(-1, 3)
                gray = (flat[:, 0] == flat[:, 1]) & (flat[:, 1] == flat[:, 2])
                colored = flat[~gray]
                for _, other_color in spec.classes:
                    other = np.asarray(other_color)
                    matches = np.all(colored == other, axis=1)
                    if not np.array_equal(other, color):
                        assert not matches.any()

    def test_gradient_background(self):
        spec = small_spec(background="gradient")
        s = ds.render_sample(spec, 0, np.random.default_rng(1))
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


class TestGenerateDataset:
    def test_same_seed_byte_identical(self, tmp_path):
        spec = small_spec(per_class_count=4)
        ds.generate_dataset(spec, 11, tmp_path / "a")
        ds.generate_dataset(spec, 11, tmp_path / "b")
        for rel in ["manifest.json", "train/images.tns", "train/labels.tns",
                    "test/boxes.tns", "val/images.tns"]:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes(), rel

    def test_different_seed_differs(self, tmp_path):
        spec = small_spec(per_class_count=2)
        ds.generate_dataset(spec, 1, tmp_path / "a")
        ds.generate_dataset(spec, 2, tmp_path / "b")
        assert (tmp_path / "a" / "train/images.tns").read_bytes() != \
            (tmp_path / "b" / "train/images.tns").read_bytes()

    def test_manifest_counts_and_digests(self, tmp_path):
        import hashlib
        spec = small_spec(per_class_count=3)
        manifest = ds.generate_dataset(spec, 5, tmp_path)
        for name, idxs in spec.split_map.items():
            assert manifest["splits"][name]["count"] == 3 * len(idxs)
            digest = manifest["splits"][name]["digests"]["images.tns"]
            raw = (tmp_path / name / "images.tns").read_bytes()
            assert digest == hashlib.sha256(raw).hexdigest()
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest

    def test_reload_round_trip_exact(self, tmp_path):
        spec = small_spec(per_class_count=3)
        ds.generate_dataset(spec, 9, tmp_path)
        _, splits = ds.load_dataset(tmp_path)
        for name, idxs in spec.split_map.items():
            split = splits[name]
            row = 0
            for c in idxs:
                for i in range(3):
                    sample = ds.render_sample(spec, c, np.random.default_rng((9, c, i)))
                    np.testing.assert_array_equal(split.images[row], sample.image)
                    assert split.labels[row] == c
                    np.testing.assert_array_equal(split.boxes[row],
                                                  np.asarray(sample.gt_box))
                    row += 1


class TestSampleEpisode:
    @pytest.fixture(scope="class")
    def splits(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("data")
        ds.generate_dataset(small_spec(), 3, root)
        return ds.load_dataset(root)[1]

    def test_five_way_one_shot_fifteen_queries(self, splits):
        episode = ds.sample_episode(splits["test"], 5, 1, 15,
                                    np.random.default_rng(0))
        assert episode.support_labels.size == 5
        assert episode.query_labels.size == 75

    def test_support_and_queries_disjoint(self, splits):
        # items are drawn without replacement: identical images cannot
        # appear on both sides of a class
        episode = ds.sample_episode(splits["train"], 5, 3, 5,
                                    np.random.default_rng(1))
        for c in range(5):
            sup = episode.support_images[episode.support_labels == c]
            qry = episode.query_images[episode.query_labels == c]
            for s in sup:
                assert not any(np.array_equal(s, q) for q in qry)

    def test_items_in_ascending_index_order(self, splits):
        # each class's supports, and its queries, come in ascending
        # dataset-index order, which fixes the summation order of prototypes
        split = splits["train"]
        rows = {split.images[i].tobytes(): i for i in range(split.images.shape[0])}
        for seed in range(5):
            episode = ds.sample_episode(split, 5, 3, 4, np.random.default_rng(seed))
            for images, labels, per in ((episode.support_images, episode.support_labels, 3),
                                        (episode.query_images, episode.query_labels, 4)):
                idx = np.array([rows[img.tobytes()] for img in images]).reshape(5, per)
                assert np.all(np.diff(idx, axis=1) > 0)
                assert np.all(labels.reshape(5, per) == np.arange(5)[:, None])
                assert all(np.unique(split.labels[r]).size == 1 for r in idx)

    def test_same_task_rng_identical_episode(self, splits):
        a = ds.sample_episode(splits["test"], 5, 1, 5, np.random.default_rng(7))
        b = ds.sample_episode(splits["test"], 5, 1, 5, np.random.default_rng(7))
        np.testing.assert_array_equal(a.support_images, b.support_images)
        np.testing.assert_array_equal(a.query_images, b.query_images)
        np.testing.assert_array_equal(a.query_boxes, b.query_boxes)

    def test_insufficient_classes(self, splits):
        with pytest.raises(InsufficientData):
            ds.sample_episode(splits["val"], 5, 1, 5, np.random.default_rng(0))

    def test_insufficient_items(self, splits):
        with pytest.raises(InsufficientData):
            ds.sample_episode(splits["test"], 5, 10, 15, np.random.default_rng(0))
