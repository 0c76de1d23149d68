import hashlib
import json
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from protoloc import dataset as ds
from protoloc.config import RunConfig
from protoloc.dataset import CorruptDataset, InsufficientData


def small_spec(**kw):
    return {**RunConfig().spec, "per_class_count": 20, **kw}


class TestSpecValidation:
    def test_default_is_twelve_classes_five_two_five(self):
        assert len(ds.CLASSES) == 12
        shapes = {s for s, _ in ds.CLASSES}
        colors = {c for _, c in ds.CLASSES}
        assert len(shapes) == 4 and len(colors) == 3
        # no class color is near gray, so none collides with a distractor
        assert all(max(c) - min(c) >= 0.2 for c in colors)
        assert list(ds.SPLITS) == ["test", "train", "val"]
        assert sorted(len(v) for v in ds.SPLITS.values()) == [2, 5, 5]
        assert len(ds.SPLITS["train"]) == 5 and len(ds.SPLITS["test"]) == 5
        # the splits cover every class index exactly once
        assert sorted(c for v in ds.SPLITS.values() for c in v) == list(range(12))
        # every shape is seen during training
        train_shapes = {ds.CLASSES[i][0] for i in ds.SPLITS["train"]}
        assert train_shapes == shapes

    def test_round_trips_through_dict(self):
        # a manifest's spec, read back from its JSON text, equals the spec
        d = small_spec(image_size=16, per_class_count=7, background="gradient")
        assert json.loads(json.dumps(d)) == d
        assert d["classes"][1] == ["circle", [0.1, 0.8, 0.15]]
        assert d["splits"] == {"test": [1, 2, 4, 6, 9], "train": [0, 3, 5, 7, 11],
                               "val": [8, 10]}

    def test_image_size_below_the_shape_bound_fails(self):
        with pytest.raises(ValueError, match=r"image_size must be >= 15, got 14"):
            RunConfig(image_size=14)
        # the bound is tight: at 14 px the thinnest plus, centred between
        # pixel centres, covers none of them
        assert not ds._shape_mask("plus", 14, 7.5, 7.5, 0.1 * 14).any()
        assert ds._shape_mask("plus", 15, 7.5, 7.5, 0.1 * 15).any()


class TestRenderSample:
    @pytest.mark.parametrize("distractors", [0, 3])
    def test_every_class_renders_at_the_smallest_size(self, distractors):
        spec = small_spec(image_size=15, distractors_min=distractors,
                          distractors_max=distractors)
        for c, (_, color) in enumerate(ds.CLASSES):
            for i in range(300):
                image, box = ds.render_sample(spec, c, np.random.default_rng((11, c, i)))
                y0, x0, y1, x1 = box
                assert 0 <= y0 <= y1 < 15 and 0 <= x0 <= x1 < 15
                crop = image[y0:y1 + 1, x0:x1 + 1]
                assert np.all(crop == color, axis=2).any()

    def test_same_rng_state_bit_identical(self):
        spec = small_spec()
        image_a, box_a = ds.render_sample(spec, 3, np.random.default_rng(99))
        image_b, box_b = ds.render_sample(spec, 3, np.random.default_rng(99))
        np.testing.assert_array_equal(image_a, image_b)
        assert box_a == box_b

    def test_box_within_bounds_and_values_in_range(self):
        spec = small_spec()
        for c in range(12):
            for i in range(25):
                image, box = ds.render_sample(spec, c, np.random.default_rng((5, c, i)))
                assert 0 <= box.y0 <= box.y1 < spec["image_size"]
                assert 0 <= box.x0 <= box.x1 < spec["image_size"]
                assert image.min() >= 0.0 and image.max() <= 1.0

    def test_class_color_inside_box_and_distractors_disjoint(self):
        spec = small_spec()
        rng_index = 0
        for c in range(len(ds.CLASSES)):
            color = np.asarray(ds.CLASSES[c][1])
            for i in range(84):          # ~1000 renders across all classes
                rng_index += 1
                image, box = ds.render_sample(spec, c, np.random.default_rng((7, c, i)))
                crop = image[box.y0:box.y1 + 1, box.x0:box.x1 + 1]
                hits = np.all(crop == color, axis=2)
                assert hits.any(), "class color must appear inside the box"
                # distractor pixels are neutral gray: r == g == b; no class
                # color is gray, so the families never collide
                flat = image.reshape(-1, 3)
                gray = (flat[:, 0] == flat[:, 1]) & (flat[:, 1] == flat[:, 2])
                colored = flat[~gray]
                for _, other_color in ds.CLASSES:
                    other = np.asarray(other_color)
                    matches = np.all(colored == other, axis=1)
                    if not np.array_equal(other, color):
                        assert not matches.any()

    def test_gradient_background(self):
        spec = small_spec(background="gradient")
        image, _ = ds.render_sample(spec, 0, np.random.default_rng(1))
        assert image.min() >= 0.0 and image.max() <= 1.0


class TestPixelGrid:
    @pytest.mark.parametrize("size", [15, 32])
    def test_one_read_only_grid_per_size(self, size):
        grid = ds._pixel_grid(size)
        assert ds._pixel_grid(size) is grid
        np.testing.assert_array_equal(grid, np.mgrid[0:size, 0:size])
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0, 0] = 1.0
        yy, _ = grid
        with pytest.raises(ValueError, match="read-only"):
            yy -= 1.0


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
        for name, idxs in ds.SPLITS.items():
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
        for name, idxs in ds.SPLITS.items():
            split = splits[name]
            row = 0
            for c in idxs:
                for i in range(3):
                    image, box = ds.render_sample(spec, c, np.random.default_rng((9, c, i)))
                    np.testing.assert_array_equal(split.images[row], image)
                    assert split.labels[row] == c
                    np.testing.assert_array_equal(split.boxes[row], np.asarray(box))
                    row += 1

    def test_default_spec_render_bytes_unchanged(self, tmp_path):
        # sha256 over the manifest and every split file, in path order,
        # recorded while the class table and splits were DatasetSpec fields
        import hashlib
        ds.generate_dataset(small_spec(per_class_count=2), 7, tmp_path)
        digest = hashlib.sha256()
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(path.read_bytes())
        assert digest.hexdigest() == \
            "ffa91b3578e651790f59e6532eecafe6988149cd7cf6b66955e676af5e9b4fd2"

    def test_gradient_spec_render_bytes_unchanged(self, tmp_path):
        # the same digest over a gradient-background dataset, recorded before
        # the pixel grid was cached
        import hashlib
        ds.generate_dataset(small_spec(per_class_count=2, background="gradient"), 7, tmp_path)
        digest = hashlib.sha256()
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(path.read_bytes())
        assert digest.hexdigest() == \
            "982239bd0a7ef04f4f65a70ddbde033d8ab5bddd1b82cb3c413a0229226bc5c5"

    @pytest.mark.parametrize("split", list(ds.SPLITS))
    def test_flipped_bit_raises_corrupt_dataset(self, tmp_path, split):
        # the load checks every split, not only those a run indexes
        ds.generate_dataset(small_spec(per_class_count=2), 3, tmp_path)
        path = tmp_path / split / "boxes.tns"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 1                         # lowest bit of the last box value
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptDataset, match=f"{split}/boxes.tns"):
            ds.load_dataset(tmp_path)

    def test_missing_file_raises_corrupt_dataset(self, tmp_path):
        # at a split's first index if it goes after the load, and at load;
        # so does a split name beyond SPLITS that has no files on disk
        ds.generate_dataset(small_spec(per_class_count=2), 3, tmp_path)
        _, splits = ds.load_dataset(tmp_path)
        (tmp_path / "val" / "labels.tns").unlink()
        with pytest.raises(CorruptDataset, match="val/labels.tns"):
            splits["val"]
        with pytest.raises(CorruptDataset, match="val/labels.tns"):
            ds.load_dataset(tmp_path)
        ds.generate_dataset(small_spec(per_class_count=2), 3, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["splits"]["extra"] = manifest["splits"]["val"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptDataset, match="extra/images.tns"):
            ds.load_dataset(tmp_path)

    def test_non_finite_image_raises_corrupt_dataset_at_load(self, tmp_path):
        # a NaN whose digest the manifest records is still refused, by name
        ds.generate_dataset(small_spec(per_class_count=2), 3, tmp_path)
        path = tmp_path / "val" / "images.tns"
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["splits"]["val"]["digests"]["images.tns"] = \
            hashlib.sha256(bytes(raw)).hexdigest()
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptDataset, match="val/images.tns: non-finite"):
            ds.load_dataset(tmp_path)

    def test_file_replaced_after_load_raises_on_first_index(self, tmp_path):
        # the bytes a split holds are the bytes that were hashed: a valid TNS
        # file put in place of a checked one is refused when the split is read
        ds.generate_dataset(small_spec(per_class_count=2), 3, tmp_path)
        _, splits = ds.load_dataset(tmp_path)
        shutil.copyfile(tmp_path / "train" / "images.tns", tmp_path / "test" / "images.tns")
        splits["train"]
        with pytest.raises(CorruptDataset, match="test/images.tns: sha256 differs"):
            splits["test"]

    def test_indexing_a_split_reads_only_its_files_once(self, tmp_path, monkeypatch):
        ds.generate_dataset(small_spec(per_class_count=2), 3, tmp_path)
        _, splits = ds.load_dataset(tmp_path)
        read = []
        real = ds.read_tns_sha256
        monkeypatch.setattr(ds, "read_tns_sha256",
                            lambda path: read.append(path.relative_to(tmp_path)) or real(path))
        assert read == []
        assert splits["train"] is splits["train"]
        assert [str(p) for p in read] == ["train/images.tns", "train/labels.tns",
                                          "train/boxes.tns"]
        with pytest.raises(TypeError):
            splits["train"] = splits["test"]
        with pytest.raises(KeyError):
            splits["other"]

    def test_generate_never_holds_a_split(self, tmp_path):
        # one split's images are 200 x 24 KiB here; rendering streams them to
        # disk a sample at a time and hashes each file as it writes it
        spec = small_spec(per_class_count=40)
        split_bytes = 5 * 40 * spec["image_size"] ** 2 * 3 * 8
        ds.generate_dataset(spec, 3, tmp_path / "warm")    # caches, first imports
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ds.generate_dataset(spec, 3, tmp_path / "data")
        peak = tracemalloc.get_traced_memory()[1] - base
        if started:
            tracemalloc.stop()
        assert peak <= split_bytes / 8

    def test_failed_write_keeps_previous_dataset(self, tmp_path, monkeypatch):
        out = tmp_path / "data"
        spec = small_spec(per_class_count=2)
        ds.generate_dataset(spec, 3, out)
        (out / "notes.txt").write_text("kept\n")

        def snapshot():
            return {p.relative_to(out): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        before = snapshot()
        real_write_tns = ds.write_tns
        calls = []

        def write_part_then_fail(path, arr):
            # the fifth file is the second split's labels: one split is done
            calls.append(path)
            if len(calls) == 5:
                real_write_tns(path, arr)
                Path(path).write_bytes(Path(path).read_bytes()[:10])
                raise OSError("disk full")
            real_write_tns(path, arr)

        monkeypatch.setattr(ds, "write_tns", write_part_then_fail)
        with pytest.raises(OSError, match="disk full"):
            ds.generate_dataset(spec, 4, out)
        assert snapshot() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data"]

        monkeypatch.undo()
        ds.generate_dataset(spec, 4, out)
        after = snapshot()
        assert after[Path("notes.txt")] == b"kept\n"
        assert after[Path("test/images.tns")] != before[Path("test/images.tns")]
        assert [p.name for p in tmp_path.iterdir()] == ["data"]
        assert json.loads((out / "manifest.json").read_text())["seed"] == 4
        ds.load_dataset(out)


class TestManifest:
    """A malformed manifest fails by name, before any file is hashed."""

    @pytest.fixture
    def data(self, tmp_path, monkeypatch):
        ds.generate_dataset(small_spec(per_class_count=2), 3, tmp_path)
        monkeypatch.setattr(ds, "scan_tns", lambda path: pytest.fail(f"hashed {path}"))
        return tmp_path

    def _edit(self, data, edit):
        manifest = json.loads((data / "manifest.json").read_text())
        edit(manifest)
        (data / "manifest.json").write_text(json.dumps(manifest))

    def test_not_json(self, data):
        (data / "manifest.json").write_text('{"splits": ')
        with pytest.raises(CorruptDataset, match="manifest.json: not JSON"):
            ds.load_dataset(data)

    def test_no_splits(self, data):
        self._edit(data, lambda m: m.pop("splits"))
        with pytest.raises(CorruptDataset, match="manifest.json: no 'splits' in the manifest"):
            ds.load_dataset(data)

    @pytest.mark.parametrize("edit", [lambda m: m.update(splits=[]),
                                      lambda m: m["splits"].pop("test")],
                             ids=["splits-a-list", "no-test-split"])
    def test_each_fixed_split_is_named(self, data, edit):
        self._edit(data, edit)
        with pytest.raises(CorruptDataset,
                           match="manifest.json: no 'test' in the manifest's splits"):
            ds.load_dataset(data)

    def test_spec_not_a_mapping(self, data):
        self._edit(data, lambda m: m.update(spec=[]))
        with pytest.raises(CorruptDataset,
                           match="manifest.json: 'spec' in the manifest is not a mapping"):
            ds.load_dataset(data)

    def test_split_without_digests(self, data):
        self._edit(data, lambda m: m["splits"]["val"].pop("digests"))
        with pytest.raises(CorruptDataset,
                           match="manifest.json: no 'digests' in split 'val'"):
            ds.load_dataset(data)

    def test_file_without_digest(self, data):
        self._edit(data, lambda m: m["splits"]["train"]["digests"].pop("labels.tns"))
        with pytest.raises(CorruptDataset,
                           match="manifest.json: no 'labels.tns' in the digests of split 'train'"):
            ds.load_dataset(data)


def _sample_episode_per_draw(split, n_way, k_shot, queries_per_class, task_rng):
    """sample_episode's draws with the class pools recomputed on every call."""
    classes = np.unique(split.labels)
    chosen = task_rng.choice(classes, size=n_way, replace=False)
    need = k_shot + queries_per_class
    sup, qry = [], []
    for c in chosen:
        pick = task_rng.choice(np.nonzero(split.labels == c)[0], size=need, replace=False)
        sup.append(np.sort(pick[:k_shot]))
        qry.append(np.sort(pick[k_shot:]))
    return np.concatenate(sup), np.concatenate(qry)


class TestSampleEpisode:
    @pytest.fixture(scope="class")
    def splits(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("data")
        ds.generate_dataset(small_spec(), 3, root)
        return ds.load_dataset(root)[1]

    def test_five_way_one_shot_fifteen_queries(self, splits):
        episode = ds.sample_episode(splits["test"], 5, 1, 15,
                                    np.random.default_rng(0))
        assert episode.support_ids.size == 5
        assert episode.query_labels.size == 75

    def test_support_and_queries_disjoint(self, splits):
        # items are drawn without replacement: identical images cannot
        # appear on both sides of a class
        split = splits["train"]
        episode = ds.sample_episode(split, 5, 3, 5, np.random.default_rng(1))
        sups = split.images[episode.support_ids].reshape(5, 3, *split.images.shape[1:])
        qrys = split.images[episode.query_ids].reshape(5, 5, *split.images.shape[1:])
        for sup, qry in zip(sups, qrys):
            for s in sup:
                assert not any(np.array_equal(s, q) for q in qry)

    def test_items_in_ascending_index_order(self, splits):
        # each class's supports, and its queries, come in ascending
        # dataset-index order, which fixes the summation order of prototypes;
        # support group c and query group c are rows of one split class
        split = splits["train"]
        for seed in range(5):
            episode = ds.sample_episode(split, 5, 3, 4, np.random.default_rng(seed))
            classes = []
            for boxes, ids, per in ((episode.support_boxes, episode.support_ids, 3),
                                    (episode.query_boxes, episode.query_ids, 4)):
                np.testing.assert_array_equal(split.boxes[ids], boxes)
                idx = ids.reshape(5, per)
                assert np.all(np.diff(idx, axis=1) > 0)
                assert all(np.unique(split.labels[r]).size == 1 for r in idx)
                classes.append(split.labels[idx[:, 0]])
            np.testing.assert_array_equal(classes[0], classes[1])
            assert np.unique(classes[0]).size == 5
            assert np.all(episode.query_labels.reshape(5, 4) == np.arange(5)[:, None])

    def test_same_task_rng_identical_episode(self, splits):
        a = ds.sample_episode(splits["test"], 5, 1, 5, np.random.default_rng(7))
        b = ds.sample_episode(splits["test"], 5, 1, 5, np.random.default_rng(7))
        np.testing.assert_array_equal(a.support_ids, b.support_ids)
        np.testing.assert_array_equal(a.query_ids, b.query_ids)

    @pytest.mark.parametrize("k_shot", [1, 5])
    def test_class_pools_draw_the_rows_a_per_draw_pool_draws(self, splits, k_shot):
        split = splits["train"]
        for seed in range(300):
            episode = ds.sample_episode(split, 5, k_shot, 15 - k_shot,
                                        np.random.default_rng(seed))
            sup, qry = _sample_episode_per_draw(split, 5, k_shot, 15 - k_shot,
                                                np.random.default_rng(seed))
            np.testing.assert_array_equal(episode.support_ids, sup)
            np.testing.assert_array_equal(episode.query_ids, qry)

    def test_pools_are_built_when_a_split_is_made(self):
        labels = np.array([4, 1, 4, 9, 1, 4])
        split = ds.SplitData("tiny", np.zeros((6, 2, 2, 3)), labels, np.zeros((6, 4)))
        np.testing.assert_array_equal(split.classes, [1, 4, 9])
        assert {c: rows.tolist() for c, rows in split.pools.items()} == \
            {1: [1, 4], 4: [0, 2, 5], 9: [3]}

    def test_insufficient_classes(self, splits):
        with pytest.raises(InsufficientData):
            ds.sample_episode(splits["val"], 5, 1, 5, np.random.default_rng(0))

    def test_insufficient_items(self, splits):
        with pytest.raises(InsufficientData):
            ds.sample_episode(splits["test"], 5, 10, 15, np.random.default_rng(0))
