"""Sequence I/O, the synthetic generator and label corruption.

The round-trip tests treat the writer as the reference serializer: whatever
load_sequence returns must re-serialize to the very same bytes.
"""

import dataclasses
import hashlib
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import lidarseq.sequence as seqio
from lidarseq.errors import FormatError, InvalidInputError, InvalidSpecError
from lidarseq.geometry import LabeledCloud, Pose, PointCloud, compose
from lidarseq.imaging import load_camera_calib, synthetic_feature_image, write_image
from lidarseq.sequence import (
    EgoSpec,
    InstanceSpec,
    SequenceFrame,
    SyntheticSceneSpec,
    class_point_quotas,
    corrupt_labels,
    default_camera_calib,
    generate_synthetic,
    load_scene_spec,
    load_sequence,
    scene_spec_from_mapping,
    sequence_length,
    write_sequence,
)


def demo_spec(**overrides) -> SyntheticSceneSpec:
    base = dict(
        frame_count=6,
        points_per_frame=400,
        classes={1: 0.25, 9: 0.4, 13: 0.35},
        instances=(
            InstanceSpec(class_id=1, points=30, center=(12.0, 2.0, 0.8),
                         velocity=(1.5, 0.0, 0.0)),
            InstanceSpec(class_id=1, points=20, center=(-6.0, -3.0, 0.8)),
        ),
        ego=EgoSpec(start=(0.0, 0.0, 1.6), velocity=(2.0, 0.0, 0.0)),
        seed=42,
    )
    base.update(overrides)
    return SyntheticSceneSpec(**base)


def write_first_image(seq_dir: Path, calib) -> None:
    """One image of the calibrated size, which load_camera_calib sizes from."""
    (seq_dir / "image_2").mkdir()
    write_image(seq_dir / "image_2" / "000000.ppm", synthetic_feature_image(calib, 0))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestRoundTrip:
    def test_write_load_write_is_byte_identical(self, tmp_path):
        frames = generate_synthetic(demo_spec())
        calib = default_camera_calib()
        first, second = tmp_path / "a", tmp_path / "b"
        write_sequence(first, frames, calib)
        write_first_image(first, calib)
        loaded = load_sequence(first)
        write_sequence(second, loaded, load_camera_calib(first))
        shutil.copytree(first / "image_2", second / "image_2")
        assert tree_bytes(first) == tree_bytes(second)

    def test_payloads_survive_the_trip(self, tmp_path):
        frames = generate_synthetic(demo_spec())
        write_sequence(tmp_path / "seq", frames)
        loaded = load_sequence(tmp_path / "seq")
        assert len(loaded) == len(frames)
        for orig, got in zip(frames, loaded):
            # Coordinates pass through float32 on disk; compare there.
            assert np.array_equal(
                orig.labeled.cloud.xyz.astype("<f4"),
                got.labeled.cloud.xyz.astype("<f4"),
            )
            assert np.array_equal(
                orig.labeled.cloud.intensity.astype("<f4"),
                got.labeled.cloud.intensity.astype("<f4"),
            )
            assert np.array_equal(orig.labeled.semantic, got.labeled.semantic)
            assert np.array_equal(orig.labeled.instance, got.labeled.instance)
            assert np.abs(got.pose.matrix - orig.pose.matrix).max() < 1e-9
            assert got.timestamp == orig.timestamp

    def test_second_generation_load_is_bit_identical(self, tmp_path):
        frames = generate_synthetic(demo_spec())
        write_sequence(tmp_path / "a", frames)
        once = load_sequence(tmp_path / "a")
        write_sequence(tmp_path / "b", once)
        twice = load_sequence(tmp_path / "b")
        for one, two in zip(once, twice):
            assert np.array_equal(one.labeled.cloud.xyz, two.labeled.cloud.xyz)
            assert np.array_equal(one.pose.matrix, two.pose.matrix)

    def test_clouds_are_column_stored(self, tmp_path):
        frames = generate_synthetic(demo_spec())
        write_sequence(tmp_path / "seq", frames)
        for frame in [*frames, *load_sequence(tmp_path / "seq")]:
            assert frame.labeled.cloud.xyz.T.flags.c_contiguous

    def tilted_source(self, tmp_path):
        """A moving-ego sequence written beside a Tr other than the default."""
        default = default_camera_calib()
        c, s = math.cos(0.0873), math.sin(0.0873)  # five degrees of yaw
        yaw = Pose.from_rotation_translation(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
                                             np.array([0.1, -0.3, 0.05]))
        calib = dataclasses.replace(default, extrinsic=compose(default.extrinsic, yaw))
        write_sequence(tmp_path / "src", generate_synthetic(demo_spec()), calib)
        return tmp_path / "src", calib

    def test_rewrite_beside_the_source_tr_is_byte_identical(self, tmp_path):
        source, calib = self.tilted_source(tmp_path)
        write_sequence(tmp_path / "out", load_sequence(source), calib)
        assert tree_bytes(tmp_path / "out") == tree_bytes(source)

    def test_rewrite_beside_another_tr_keeps_the_poses(self, tmp_path):
        # the verbatim camera-frame rows beside the default Tr moved every pose
        source, _ = self.tilted_source(tmp_path)
        loaded = load_sequence(source)
        write_sequence(tmp_path / "out", loaded)
        for before, after in zip(loaded, load_sequence(tmp_path / "out"), strict=True):
            assert np.abs(after.pose.matrix - before.pose.matrix).max() < 1e-9

    def test_calib_round_trip(self, tmp_path):
        frames = generate_synthetic(demo_spec())
        calib = default_camera_calib(128, 96)
        write_sequence(tmp_path / "seq", frames, calib)
        write_first_image(tmp_path / "seq", calib)
        got = load_camera_calib(tmp_path / "seq")
        assert (got.fx, got.fy, got.cx, got.cy, got.width, got.height) == (
            calib.fx, calib.fy, calib.cx, calib.cy, 128, 96,
        )
        assert np.array_equal(got.extrinsic.matrix, calib.extrinsic.matrix)


def with_ids(frame: SequenceFrame, semantic, instance) -> SequenceFrame:
    """``frame`` with its first and last points relabeled."""
    sem, inst = frame.labeled.semantic.copy(), frame.labeled.instance.copy()
    sem[[0, -1]], inst[[0, -1]] = semantic, instance
    return dataclasses.replace(frame, labeled=LabeledCloud(frame.labeled.cloud, sem, inst))


class TestLabelField:
    """Semantic and instance ids share one 32-bit record, 16 bits each."""

    @pytest.mark.parametrize("name, semantic, instance, bad", [
        ("semantic", 70000, 0, 70000),
        ("semantic", -3, 0, -3),
        ("instance", 1, 70000, 70000),
        ("instance", 1, -3, -3),
    ])
    def test_ids_outside_16_bits_are_rejected(self, tmp_path, name, semantic, instance, bad):
        # once written masked or shifted: 70000 as 4464, -3 as 65533
        frames = list(generate_synthetic(demo_spec()))
        frames[2] = with_ids(frames[2], semantic, instance)
        message = rf"^frame 2: {name} id {bad} lies outside the 16-bit label field \[0, 65535\]"
        with pytest.raises(InvalidInputError, match=message):
            write_sequence(tmp_path / "seq", frames)
        assert not (tmp_path / "seq").exists()

    def test_field_edges_round_trip(self, tmp_path):
        frames = list(generate_synthetic(demo_spec()))
        frames[1] = with_ids(frames[1], [0, 65535], [65535, 0])
        write_sequence(tmp_path / "a", frames)
        labels = np.frombuffer((tmp_path / "a" / "labels" / "000001.label").read_bytes(), dtype="<u4")
        assert labels[[0, -1]].tolist() == [0xFFFF0000, 0x0000FFFF]
        loaded = load_sequence(tmp_path / "a")
        assert loaded[1].labeled.semantic[[0, -1]].tolist() == [0, 65535]
        assert loaded[1].labeled.instance[[0, -1]].tolist() == [65535, 0]
        write_sequence(tmp_path / "b", loaded)
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


class TestFormatErrors:
    @pytest.fixture()
    def seq_dir(self, tmp_path):
        write_sequence(tmp_path / "seq", generate_synthetic(demo_spec()))
        return tmp_path / "seq"

    def test_truncated_bin_is_rejected(self, seq_dir):
        target = seq_dir / "velodyne" / "000002.bin"
        target.write_bytes(target.read_bytes()[:-7])
        with pytest.raises(FormatError, match="bytes"):
            load_sequence(seq_dir)

    def test_truncated_label_is_rejected(self, seq_dir):
        target = seq_dir / "labels" / "000001.label"
        target.write_bytes(target.read_bytes()[:-2])
        with pytest.raises(FormatError, match="bytes"):
            load_sequence(seq_dir)

    def test_label_count_mismatch_is_rejected(self, seq_dir):
        target = seq_dir / "labels" / "000001.label"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(FormatError, match="labels for"):
            load_sequence(seq_dir)

    def test_missing_frame_file_names_the_path(self, seq_dir):
        for victim, frame in ((seq_dir / "velodyne" / "000003.bin", 3),
                              (seq_dir / "labels" / "000001.label", 1)):
            victim.unlink()
            with pytest.raises(FormatError) as info:
                load_sequence(seq_dir)
            assert str(info.value) == f"{victim}: no such file for frame {frame}"

    def test_malformed_pose_row_is_rejected(self, seq_dir):
        lines = (seq_dir / "poses.txt").read_text().splitlines()
        lines[1] = "1.0 2.0 3.0"
        (seq_dir / "poses.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="12 values"):
            load_sequence(seq_dir)

    def test_calib_without_tr_is_rejected(self, seq_dir):
        text = (seq_dir / "calib.txt").read_text()
        (seq_dir / "calib.txt").write_text(
            "\n".join(l for l in text.splitlines() if not l.startswith("Tr"))
        )
        with pytest.raises(FormatError, match="Tr"):
            load_sequence(seq_dir)

    def test_times_count_must_match_the_poses(self, seq_dir):
        times = seq_dir / "times.txt"
        lines = times.read_text().splitlines()
        for listed in (lines[:-2], lines + ["99.0"]):
            times.write_text("\n".join(listed) + "\n")
            pattern = rf"times\.txt: {len(listed)} times for {len(lines)} frames"
            with pytest.raises(FormatError, match=pattern):
                load_sequence(seq_dir)
            with pytest.raises(FormatError, match=pattern):
                load_sequence(seq_dir, window=(0, 1))

    def test_bad_point_values_name_the_file(self, seq_dir):
        target = seq_dir / "velodyne" / "000002.bin"
        original = np.frombuffer(target.read_bytes(), dtype="<f4").reshape(-1, 4)
        for column, value, reason in ((1, np.nan, "non-finite"), (3, 1.5, r"\[0, 1\]")):
            data = original.copy()
            data[3, column] = value
            target.write_bytes(data.tobytes())
            with pytest.raises(FormatError, match=rf"000002\.bin: .*{reason}"):
                load_sequence(seq_dir)
            assert len(load_sequence(seq_dir, window=(0, 1))) == 2

    def test_window_outside_sequence_is_rejected(self, seq_dir):
        with pytest.raises(InvalidInputError):
            load_sequence(seq_dir, window=(2, 99))


class TestLazyLoading:
    def test_window_load_touches_only_window_files(self, tmp_path, monkeypatch):
        write_sequence(tmp_path / "seq", generate_synthetic(demo_spec()))
        touched = []
        real = seqio._read_bytes
        monkeypatch.setattr(
            seqio, "_read_bytes", lambda p: (touched.append(Path(p).name), real(p))[1]
        )
        frames = load_sequence(tmp_path / "seq", window=(2, 3))
        assert [f.index for f in frames] == [2, 3]
        stems = {name.split(".")[0] for name in touched}
        assert stems == {"000002", "000003"}

    def test_indices_load_touches_only_listed_files(self, tmp_path, monkeypatch):
        write_sequence(tmp_path / "seq", generate_synthetic(demo_spec()))
        whole = {f.index: f for f in load_sequence(tmp_path / "seq")}
        touched = []
        real = seqio._read_bytes
        monkeypatch.setattr(
            seqio, "_read_bytes", lambda p: (touched.append(Path(p).name), real(p))[1]
        )
        frames = load_sequence(tmp_path / "seq", indices=[5, 1, 3, 1])
        assert [f.index for f in frames] == [1, 3, 5]
        assert {name.split(".")[0] for name in touched} == {"000001", "000003", "000005"}
        for frame in frames:
            want = whole[frame.index]
            for get in (
                lambda f: f.labeled.cloud.xyz,
                lambda f: f.labeled.cloud.intensity,
                lambda f: f.labeled.semantic,
                lambda f: f.labeled.instance,
                lambda f: f.pose.matrix,
                lambda f: f.file_pose,
            ):
                assert get(frame).tobytes() == get(want).tobytes()
            assert frame.timestamp == want.timestamp
        assert load_sequence(tmp_path / "seq", indices=[]) == []

    def test_indices_outside_sequence_are_named(self, tmp_path, monkeypatch):
        write_sequence(tmp_path / "seq", generate_synthetic(demo_spec()))
        monkeypatch.setattr(seqio, "_read_bytes", lambda p: pytest.fail(f"read {p}"))
        for bad in (6, -1):
            with pytest.raises(InvalidInputError, match=f"frame index {bad} outside sequence of 6 frames"):
                load_sequence(tmp_path / "seq", indices=[0, bad])
        with pytest.raises(InvalidInputError, match="not both"):
            load_sequence(tmp_path / "seq", window=(0, 1), indices=[0])

    def test_sequence_length_decodes_no_frame(self, tmp_path, monkeypatch):
        write_sequence(tmp_path / "seq", generate_synthetic(demo_spec()))
        monkeypatch.setattr(seqio, "_read_bytes", lambda p: pytest.fail(f"read {p}"))
        assert sequence_length(tmp_path / "seq") == demo_spec().frame_count


class TestSyntheticScene:
    def test_same_seed_is_bit_identical(self):
        a = generate_synthetic(demo_spec())
        b = generate_synthetic(demo_spec())
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.labeled.cloud.xyz, fb.labeled.cloud.xyz)
            assert np.array_equal(fa.labeled.semantic, fb.labeled.semantic)

    def test_frame_bytes_are_pinned(self):
        # SHA-256 of each frame's xyz, intensity, semantic and instance bytes,
        # recorded before the generator wrote into one coordinate block: a
        # moving and a static instance, and a yawing, driving ego
        spec = SyntheticSceneSpec(
            frame_count=4, points_per_frame=300, classes={1: 0.5, 10: 0.3, 252: 0.2},
            instances=(InstanceSpec(252, 40, (6.0, 2.0, 0.8), velocity=(3.0, -1.0, 0.0)),
                       InstanceSpec(10, 30, (-4.0, 5.0, 0.5))),
            ego=EgoSpec(start=(1.0, -2.0, 0.0), velocity=(2.0, 0.5, 0.0), yaw_rate_deg=15.0),
            seed=11,
        )
        digests = []
        for frame in generate_synthetic(spec):
            sha = hashlib.sha256()
            for arr in (frame.labeled.cloud.xyz, frame.labeled.cloud.intensity,
                        frame.labeled.semantic, frame.labeled.instance):
                sha.update(arr.tobytes())
            digests.append(sha.hexdigest())
        assert digests == [
            "fbe816292376d192edd0d46d2ff39f2ad922150dc41d4122c35bcba59c8859be",
            "22603b782c2ebb9e107429eb5b50ac9430ac7a44dbb330ebd707a698280f7bdf",
            "dea6a4e64e7a99e8f4544a8a8c330afe2545cd5be15afa669f4509a24e663a47",
            "99e4cf8dc5ce8384fb66c5d8e24b0a906b5926120484e0cb9efa8c909423c7e8",
        ]

    def test_histogram_matches_spec_within_one_point(self):
        spec = demo_spec(points_per_frame=997)
        frame = generate_synthetic(spec)[0]
        sem = frame.labeled.semantic
        for cid, frac in spec.classes.items():
            assert abs(int((sem == cid).sum()) - frac * 997) <= 1

    def test_quotas_sum_and_stay_close(self):
        classes = {1: 1 / 3, 2: 1 / 3, 3: 1 / 3}
        quotas = class_point_quotas(classes, 1000)
        assert sum(quotas.values()) == 1000
        assert all(abs(q - 1000 / 3) < 1 for q in quotas.values())

    def test_static_instance_centroid_fixed_in_world(self):
        frames = generate_synthetic(demo_spec())
        world = []
        for frame in frames:
            pick = frame.labeled.instance == 2  # the static instance
            assert pick.sum() == 20
            world.append(frame.pose.apply(frame.labeled.cloud.xyz[pick]).mean(axis=0))
        world = np.array(world)
        assert np.abs(world - world[0]).max() < 1e-9

    def test_moving_instance_advances_per_frame(self):
        frames = generate_synthetic(demo_spec())
        world = []
        for frame in frames:
            pick = frame.labeled.instance == 1
            world.append(frame.pose.apply(frame.labeled.cloud.xyz[pick]).mean(axis=0))
        steps = np.diff(np.array(world), axis=0)
        assert np.abs(steps - np.array([0.15, 0.0, 0.0])).max() < 1e-9

    def test_world_points_are_shared_across_frames(self):
        frames = generate_synthetic(demo_spec())
        still = frames[0].labeled.instance == 0
        w0 = frames[0].pose.apply(frames[0].labeled.cloud.xyz[still])
        w4 = frames[4].pose.apply(frames[4].labeled.cloud.xyz[still])
        assert np.abs(w0 - w4).max() < 1e-9

    def test_yaw_rate_turns_the_ego(self):
        frames = generate_synthetic(
            demo_spec(ego=EgoSpec(yaw_rate_deg=90.0), frame_count=11)
        )
        # After one second at 90 deg/s, +x has rotated onto +y.
        rot = frames[10].pose.rotation
        assert np.abs(rot @ np.array([1.0, 0, 0]) - np.array([0, 1.0, 0])).max() < 1e-12

    def test_spec_validation(self):
        with pytest.raises(InvalidSpecError):
            demo_spec(classes={})
        with pytest.raises(InvalidSpecError):
            demo_spec(classes={1: 0.6, 2: 0.6})
        with pytest.raises(InvalidSpecError):
            demo_spec(frame_count=0)
        with pytest.raises(InvalidSpecError):
            demo_spec(
                points_per_frame=100,
                instances=(InstanceSpec(class_id=1, points=90, center=(0, 0, 0)),),
            )

    def test_spec_parses_from_yaml(self, tmp_path):
        text = """
frame_count: 3
points_per_frame: 120
seed: 5
classes: {1: 0.5, 9: 0.5}
instances:
  - class_id: 1
    points: 10
    center: [5.0, 0.0, 0.5]
    velocity: [1.0, 0.0, 0.0]
ego:
  velocity: [2.0, 0.0, 0.0]
camera: {width: 32, height: 24}
"""
        path = tmp_path / "scene.yaml"
        path.write_text(text)
        spec = load_scene_spec(path)
        assert spec.frame_count == 3
        assert spec.camera.width == 32
        frames = generate_synthetic(spec)
        assert frames[0].count == 120

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "scene.yaml"
        path.write_text(
            "frame_count: 3\npoints_per_frame: 120\nclasses: {1: 0.5, 9: 0.5}\n"
            "instances: [{class_id: 1, points: 5, center: [1, 2, 0]}]\nego: {}\ncamera: {}\n"
        )
        assert load_scene_spec(path) == SyntheticSceneSpec(
            frame_count=3,
            points_per_frame=120,
            classes={1: 0.5, 9: 0.5},
            instances=(InstanceSpec(class_id=1, points=5, center=(1.0, 2.0, 0.0)),),
        )

    def test_mapping_errors_become_spec_errors(self):
        with pytest.raises(InvalidSpecError, match="frame_count"):
            scene_spec_from_mapping({"points_per_frame": 10, "classes": {1: 1.0}})

    def test_malformed_spec_files_name_the_file(self, tmp_path):
        base = "frame_count: 3\npoints_per_frame: 120\nclasses: {1: 1.0}\n"
        cases = {
            "yaml_syntax": ("classes: {9: [\n", "not valid YAML"),
            "scalar_ego": (base + "ego: 5\n", "expected a mapping of ego keys, got 5"),
            "scalar_camera": (base + "camera: 5\n", "expected a mapping of camera keys, got 5"),
            "scalar_instance": (base + "instances: [5]\n", "expected a mapping of instance keys, got 5"),
            # a misspelt optional key used to leave its default in place silently
            "top_level_typo": (base + "sede: 4\n", "unknown top-level key 'sede'"),
            "instance_typo": (
                base + "instances: [{class_id: 1, points: 5, center: [1, 2, 0], velocty: [1, 0, 0]}]\n",
                "unknown instance key 'velocty'",
            ),
            "ego_typo": (base + "ego: {yaw_rate: 2.0}\n", "unknown ego key 'yaw_rate'"),
            "camera_fx": (base + "camera: {width: 32, fx: 50.0}\n", "unknown camera key 'fx'"),
        }
        for name, (text, why) in cases.items():
            path = tmp_path / f"{name}.yaml"
            path.write_text(text)
            with pytest.raises(InvalidSpecError, match=why) as info:
                load_scene_spec(path)
            assert str(info.value).startswith(f"{path}: ")


class TestCorruptLabels:
    @pytest.fixture()
    def frame(self):
        return generate_synthetic(demo_spec(points_per_frame=1000, frame_count=1))[0]

    def test_rate_zero_is_identity(self, frame):
        assert corrupt_labels(frame, 0.0, seed=1) is frame

    def test_exact_corruption_count(self, frame):
        out = corrupt_labels(frame, 0.3, seed=1)
        changed = (out.labeled.semantic != frame.labeled.semantic).sum()
        assert changed == 300

    def test_rate_one_changes_every_label(self, frame):
        out = corrupt_labels(frame, 1.0, seed=2)
        assert (out.labeled.semantic != frame.labeled.semantic).all()

    def test_new_labels_stay_within_present_classes(self, frame):
        out = corrupt_labels(frame, 0.5, seed=3)
        assert set(np.unique(out.labeled.semantic)) <= set(
            np.unique(frame.labeled.semantic)
        )

    def test_geometry_and_instances_untouched(self, frame):
        out = corrupt_labels(frame, 0.4, seed=4)
        assert out.labeled.cloud is frame.labeled.cloud
        assert np.array_equal(out.labeled.instance, frame.labeled.instance)

    def test_seed_determinism(self, frame):
        a = corrupt_labels(frame, 0.3, seed=9)
        b = corrupt_labels(frame, 0.3, seed=9)
        c = corrupt_labels(frame, 0.3, seed=10)
        assert np.array_equal(a.labeled.semantic, b.labeled.semantic)
        assert not np.array_equal(a.labeled.semantic, c.labeled.semantic)

    def test_single_class_frame_is_left_alone(self):
        cloud = PointCloud(np.random.default_rng(0).normal(size=(50, 3)), np.zeros(50))
        frame = SequenceFrame(
            index=0,
            labeled=LabeledCloud(cloud, np.full(50, 7, np.int64), np.zeros(50, np.int64)),
            pose=Pose.identity(),
            timestamp=0.0,
        )
        out = corrupt_labels(frame, 1.0, seed=0)
        assert np.array_equal(out.labeled.semantic, frame.labeled.semantic)

    def test_bad_rate_is_rejected(self, frame):
        with pytest.raises(InvalidInputError):
            corrupt_labels(frame, 1.5, seed=0)
