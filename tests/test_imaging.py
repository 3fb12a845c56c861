"""Camera projection, feature lifting, temporal fusion, and image files.

Projection is verified against a scalar per-point loop and aggregation
against a per-frame lift-then-transform union; both oracles are local to
this file.
"""

import math

import numpy as np
import pytest

from lidarseq.aggregation import aggregate_direct
from lidarseq.errors import ConfigurationError, FormatError, InvalidInputError
from lidarseq.imaging import (
    ImageFeatureMap,
    aggregate_image_features,
    fuse_to_voxels,
    lift_features,
    peek_image_size,
    project_to_image,
    read_image,
    synthetic_feature_image,
    temporal_multimodal_gather,
    write_image,
)
from lidarseq.sequence import (
    CameraCalib,
    CameraSpec,
    EgoSpec,
    SyntheticSceneSpec,
    default_camera_calib,
    generate_synthetic,
)
from lidarseq.voxels import apply_fixed_kernel, gather_trilinear, seeded_kernel, voxelize

from helpers import random_labeled


CALIB = default_camera_calib()


def project_oracle(xyz, calib, z_min=0.1):
    """One point at a time, plain Python arithmetic."""
    rot = calib.extrinsic.rotation
    trans = calib.extrinsic.translation
    out = []
    for p in xyz:
        cam = [sum(rot[r][c] * p[c] for c in range(3)) + trans[r] for r in range(3)]
        z = cam[2]
        if z <= z_min:
            out.append((0.0, 0.0, z, False))
            continue
        u = calib.fx * cam[0] / z + calib.cx
        v = calib.fy * cam[1] / z + calib.cy
        ok = 0 <= u < calib.width and 0 <= v < calib.height
        out.append((u if ok else 0.0, v if ok else 0.0, z, ok))
    return out


def make_frames(frame_count=5, ego_velocity=(2.0, 0.0, 0.0), points=400, seed=3):
    spec = SyntheticSceneSpec(
        frame_count=frame_count,
        points_per_frame=points,
        classes={40: 0.6, 50: 0.4},
        ego=EgoSpec(velocity=ego_velocity),
        camera=CameraSpec(),
        seed=seed,
        extent=25.0,
    )
    return generate_synthetic(spec)


def frame_images(frames, channels=3, seed=9):
    return {f.index: synthetic_feature_image(CALIB, f.index, channels, seed) for f in frames}


class TestCameraCalib:
    def test_numbers_and_sizes_follow_the_spec_rules(self):
        good = dict(fx=60.0, fy=60.0, cx=32.0, cy=24.0, extrinsic=CALIB.extrinsic, width=64, height=48)
        cases = {
            "fx must be finite, got nan": {"fx": math.nan},
            "cy must be a number, got '24'": {"cy": "24"},
            "width must be an integer, got 2.5": {"width": 2.5},
            "height must be an integer, got True": {"height": True},
            "focal lengths must be positive": {"fy": -1.0},
            "image size must be positive": {"height": 0},
        }
        for message, bad in cases.items():
            with pytest.raises(InvalidInputError) as info:
                CameraCalib(**{**good, **bad})
            assert str(info.value) == message
        calib = CameraCalib(**{**good, "fx": np.float64(60), "width": 64.0})
        assert calib == CameraCalib(**good) and type(calib.fx) is float and type(calib.width) is int


class TestProjection:
    def test_optical_axis_point_hits_principal_point(self):
        uv, depth, fov = project_to_image(np.array([[5.0, 0.0, 0.0]]), CALIB)
        assert fov[0]
        assert depth[0] == 5.0
        assert uv[0, 0] == CALIB.cx and uv[0, 1] == CALIB.cy

    def test_point_behind_camera_is_out(self):
        _, _, fov = project_to_image(np.array([[-5.0, 0.0, 0.0]]), CALIB)
        assert not fov[0]

    def test_near_plane_cutoff(self):
        _, _, fov = project_to_image(np.array([[0.05, 0.0, 0.0]]), CALIB)
        assert not fov[0]

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        xyz = rng.uniform(-20, 20, size=(500, 3))
        uv, depth, fov = project_to_image(xyz, CALIB)
        want = project_oracle(xyz, CALIB)
        for i, (u, v, z, ok) in enumerate(want):
            assert fov[i] == ok
            assert abs(depth[i] - z) < 1e-12
            if ok:
                assert abs(uv[i, 0] - u) < 1e-9 and abs(uv[i, 1] - v) < 1e-9
            else:
                assert uv[i, 0] == 0.0 and uv[i, 1] == 0.0

    def test_in_fov_count_positive_on_forward_cloud(self):
        rng = np.random.default_rng(1)
        xyz = rng.uniform([2, -3, -2], [20, 3, 2], size=(200, 3))
        _, _, fov = project_to_image(xyz, CALIB)
        assert fov.sum() > 0


class TestLift:
    def test_constant_image_lifts_the_constant(self):
        labeled = random_labeled(np.random.default_rng(2), 300)
        from lidarseq.sequence import SequenceFrame
        from lidarseq.geometry import Pose

        frame = SequenceFrame(0, labeled, Pose.identity(), 0.0)
        image = ImageFeatureMap(np.full((CALIB.height, CALIB.width, 2), 0.75))
        lifted = lift_features(frame, image, CALIB)
        _, _, fov = project_to_image(labeled.cloud.xyz, CALIB)
        assert lifted.count == int(fov.sum())
        assert np.array_equal(lifted.xyz, labeled.cloud.xyz[fov])
        if lifted.count:
            assert np.all(lifted.features == 0.75)
        assert np.all(lifted.source_frame == 0)

    def test_empty_fov_gives_empty_lift(self):
        from lidarseq.sequence import SequenceFrame
        from lidarseq.geometry import Pose, LabeledCloud, PointCloud

        cloud = PointCloud(np.array([[-5.0, 0.0, 0.0]]), np.array([0.5]))
        labeled = LabeledCloud(cloud, np.array([40]), np.array([0]))
        frame = SequenceFrame(0, labeled, Pose.identity(), 0.0)
        image = ImageFeatureMap(np.zeros((CALIB.height, CALIB.width, 1)))
        assert lift_features(frame, image, CALIB).count == 0

    def test_pixel_coordinate_image_round_trips_the_projection(self):
        # feature at pixel (r, c) is (c, r): lifting must return each point's
        # own rounded pixel coordinates
        frames = make_frames(frame_count=1, ego_velocity=(0, 0, 0))
        frame = frames[0]
        feats = np.zeros((CALIB.height, CALIB.width, 2))
        feats[:, :, 0] = np.arange(CALIB.width)[None, :]
        feats[:, :, 1] = np.arange(CALIB.height)[:, None]
        lifted = lift_features(frame, ImageFeatureMap(feats), CALIB)
        uv, _, fov = project_to_image(frame.labeled.cloud.xyz, CALIB)
        want_u = np.clip(np.rint(uv[fov, 0]), 0, CALIB.width - 1)
        want_v = np.clip(np.rint(uv[fov, 1]), 0, CALIB.height - 1)
        assert np.array_equal(lifted.features[:, 0], want_u)
        assert np.array_equal(lifted.features[:, 1], want_v)

    def make_frame(self, xyz):
        from lidarseq.sequence import SequenceFrame
        from lidarseq.geometry import Pose, LabeledCloud, PointCloud

        xyz = np.asarray(xyz, dtype=np.float64)
        cloud = PointCloud(xyz, np.full(len(xyz), 0.5))
        labeled = LabeledCloud(cloud, np.full(len(xyz), 40), np.zeros(len(xyz), dtype=np.int64))
        return SequenceFrame(0, labeled, Pose.identity(), 0.0)

    def test_optical_axis_point_reads_the_principal_pixel(self):
        feats = np.zeros((CALIB.height, CALIB.width, 1))
        row, col = int(round(CALIB.cy)), int(round(CALIB.cx))
        feats[row, col, 0] = 0.5
        lifted = lift_features(self.make_frame([[5.0, 0.0, 0.0]]), ImageFeatureMap(feats), CALIB)
        assert lifted.count == 1
        assert lifted.features[0, 0] == 0.5

    def test_matches_scalar_nearest_pixel_oracle(self):
        # each in-FOV point reads the pixel at its rounded, clamped projection;
        # the oracle rounds one point at a time from the scalar projection
        rng = np.random.default_rng(8)
        xyz = rng.uniform([1, -4, -3], [25, 4, 3], size=(300, 3))
        image = synthetic_feature_image(CALIB, 0, channels=2, seed=4)
        lifted = lift_features(self.make_frame(xyz), image, CALIB)
        want_xyz, want_feats = [], []
        for p, (u, v, _, ok) in zip(xyz, project_oracle(xyz, CALIB)):
            if not ok:
                continue
            row = min(max(round(v), 0), CALIB.height - 1)
            col = min(max(round(u), 0), CALIB.width - 1)
            want_xyz.append(p)
            want_feats.append(image.features[row, col])
        assert lifted.count == len(want_xyz) > 0
        assert np.array_equal(lifted.xyz, np.array(want_xyz))
        assert np.array_equal(lifted.features, np.array(want_feats))

    def test_dimension_mismatch_is_rejected(self):
        frames = make_frames(frame_count=1)
        image = ImageFeatureMap(np.zeros((CALIB.height + 1, CALIB.width, 3)))
        with pytest.raises(ConfigurationError):
            lift_features(frames[0], image, CALIB)


class TestAggregateImageFeatures:
    def test_zero_window_is_present_lift_only(self):
        frames = make_frames()
        images = frame_images(frames)
        out = aggregate_image_features(frames, images, CALIB, t=4, window=0)
        solo = lift_features(frames[4], images[4], CALIB)
        assert out.count == solo.count
        assert np.array_equal(out.xyz, solo.xyz)
        assert np.all(out.source_frame == 4)

    def test_default_step_and_window_pick_four_past_frames(self):
        frames = make_frames(frame_count=49)
        images = frame_images(frames)
        out = aggregate_image_features(frames, images, CALIB, t=48)
        assert set(out.source_frame.tolist()) == {48, 36, 24, 12, 0}

    def test_truncation_below_first_frame(self):
        frames = make_frames(frame_count=13)
        images = frame_images(frames)
        out = aggregate_image_features(frames, images, CALIB, t=12)
        assert set(out.source_frame.tolist()) == {12, 0}

    def test_matches_per_frame_lift_then_transform_oracle(self):
        frames = make_frames(frame_count=9, ego_velocity=(1.5, 0.4, 0.0))
        images = frame_images(frames)
        out = aggregate_image_features(frames, images, CALIB, t=8, step=2, window=6)
        present = frames[8]
        parts = []
        for idx in (8, 6, 4, 2):
            lifted = lift_features(frames[idx], images[idx], CALIB)
            world = frames[idx].pose.apply(lifted.xyz)
            local = np.linalg.solve(
                np.vstack([present.pose.matrix, [0, 0, 0, 1]]),
                np.hstack([world, np.ones((world.shape[0], 1))]).T,
            ).T[:, :3]
            parts.append((np.full(lifted.count, idx), local, lifted.features))
        want_src = np.concatenate([p[0] for p in parts])
        want_xyz = np.concatenate([p[1] for p in parts])
        want_feat = np.concatenate([p[2] for p in parts])
        assert np.array_equal(out.source_frame, want_src)
        assert np.abs(out.xyz - want_xyz).max() < 1e-9
        assert np.array_equal(out.features, want_feat)

    def test_world_positions_match_per_frame_fov_union(self):
        frames = make_frames(frame_count=9, ego_velocity=(2.0, 0.0, 0.0))
        images = frame_images(frames)
        out = aggregate_image_features(frames, images, CALIB, t=8, step=4, window=8)
        present = frames[8]
        got_world = np.sort(present.pose.apply(out.xyz), axis=0)
        rows = []
        for idx in (8, 4, 0):
            lifted = lift_features(frames[idx], images[idx], CALIB)
            rows.append(frames[idx].pose.apply(lifted.xyz))
        want_world = np.sort(np.concatenate(rows, axis=0), axis=0)
        assert got_world.shape == want_world.shape
        assert np.abs(got_world - want_world).max() < 1e-9

    def test_moving_ego_expands_the_fov_union(self):
        frames = make_frames(frame_count=9, ego_velocity=(2.5, 0.0, 0.0))
        images = frame_images(frames)
        out = aggregate_image_features(frames, images, CALIB, t=8, step=2, window=8)
        present = lift_features(frames[8], images[8], CALIB)
        assert out.count > present.count

    def test_missing_image_for_a_frame_errors(self):
        frames = make_frames(frame_count=5)
        images = frame_images(frames)
        del images[2]
        with pytest.raises(InvalidInputError):
            aggregate_image_features(frames, images, CALIB, t=4, step=2, window=4)

    def test_channel_disagreement_errors(self):
        frames = make_frames(frame_count=3)
        images = frame_images(frames)
        images[1] = synthetic_feature_image(CALIB, 1, channels=2)
        with pytest.raises(ConfigurationError):
            aggregate_image_features(frames, images, CALIB, t=2, step=1, window=2)

    def test_bad_step_rejected(self):
        frames = make_frames(frame_count=3)
        images = frame_images(frames)
        with pytest.raises(InvalidInputError):
            aggregate_image_features(frames, images, CALIB, t=2, step=0)

    def test_non_finite_step_and_window_rejected(self):
        frames = make_frames(frame_count=3)
        images = frame_images(frames)
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="image step must be a positive integer"):
                aggregate_image_features(frames, images, CALIB, t=2, step=bad)
            with pytest.raises(InvalidInputError, match="image window must be a non-negative"):
                aggregate_image_features(frames, images, CALIB, t=2, window=bad)


class TestFuseToVoxels:
    def agg(self, seed=5):
        frames = make_frames(frame_count=5)
        images = frame_images(frames, seed=seed)
        return aggregate_image_features(frames, images, CALIB, t=4, step=2, window=4)

    def test_scale_zero_matches_voxelize_then_kernel(self):
        agg = self.agg()
        fused = fuse_to_voxels(agg, scales=2, seed=7, voxel_size=0.4)
        want = apply_fixed_kernel(voxelize(agg.xyz, agg.features, 0.4), seeded_kernel(3, 7))
        assert np.array_equal(fused[0].coords, want.coords)
        assert np.array_equal(fused[0].features, want.features)

    def test_counts_non_increasing_across_scales(self):
        fused = fuse_to_voxels(self.agg(), scales=4, seed=1, voxel_size=0.3)
        counts = [m.count for m in fused]
        assert counts == sorted(counts, reverse=True)
        assert [m.scale_level for m in fused] == [0, 1, 2, 3]

    def test_deterministic_per_seed(self):
        agg = self.agg()
        a = fuse_to_voxels(agg, scales=3, seed=11, voxel_size=0.4)
        b = fuse_to_voxels(agg, scales=3, seed=11, voxel_size=0.4)
        c = fuse_to_voxels(agg, scales=3, seed=12, voxel_size=0.4)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
        assert not np.array_equal(a[0].features, c[0].features)

    def test_rejects_degenerate_arguments(self):
        agg = self.agg()
        with pytest.raises(InvalidInputError):
            fuse_to_voxels(agg, scales=0)

    def test_negative_seed_is_named(self):
        with pytest.raises(InvalidInputError, match=r"^seed must be >= 0, got -1$"):
            fuse_to_voxels(self.agg(), seed=-1)

    def test_seed_and_scales_follow_the_integer_rule(self):
        agg = self.agg()
        with pytest.raises(InvalidInputError, match=r"^seed must be an integer, got 1.5$"):
            fuse_to_voxels(agg, seed=1.5)
        with pytest.raises(InvalidInputError, match=r"^scales must be an integer, got 2.5$"):
            fuse_to_voxels(agg, scales=2.5)
        want = fuse_to_voxels(agg, scales=2, seed=2, voxel_size=0.4)
        for scales, seed in ((2.0, 2.0), (np.int64(2), np.int64(2))):
            got = fuse_to_voxels(agg, scales=scales, seed=seed, voxel_size=0.4)
            assert [m.features.tobytes() for m in got] == [m.features.tobytes() for m in want]


class TestTemporalMultimodalGather:
    def test_concatenates_per_scale_gathers(self):
        frames = make_frames(frame_count=5)
        images = frame_images(frames)
        agg_img = aggregate_image_features(frames, images, CALIB, t=4, step=2, window=4)
        fused = fuse_to_voxels(agg_img, scales=3, seed=2, voxel_size=0.4)
        agg_pts = aggregate_direct(frames, t=4, window=4)
        got = temporal_multimodal_gather(agg_pts.labeled.cloud.xyz, fused)
        xyz = agg_pts.labeled.cloud.xyz
        want = np.concatenate([gather_trilinear(m, xyz) for m in fused], axis=1)
        assert got.shape == (agg_pts.count, 3 * fused[0].width)
        assert np.array_equal(got, want)

    def test_constant_map_returns_the_constant_on_covered_points(self):
        rng = np.random.default_rng(6)
        xyz = rng.uniform(-3, 3, size=(150, 3))
        vmap = voxelize(xyz, np.ones((150, 2)), 0.5)
        got = temporal_multimodal_gather(xyz, [vmap])
        assert np.abs(got - 1.0).max() < 1e-12

    def test_far_points_get_zeros(self):
        vmap = voxelize(np.zeros((1, 3)), np.ones((1, 2)), 0.5)
        got = temporal_multimodal_gather(np.array([[90.0, 90.0, 90.0]]), [vmap])
        assert np.array_equal(got, np.zeros((1, 2)))

    def test_point_order_equivariance(self):
        rng = np.random.default_rng(7)
        xyz = rng.uniform(-3, 3, size=(80, 3))
        vmap = voxelize(xyz, rng.normal(size=(80, 3)), 0.5)
        perm = rng.permutation(80)
        straight = temporal_multimodal_gather(xyz, [vmap])
        shuffled = temporal_multimodal_gather(xyz[perm], [vmap])
        assert np.array_equal(straight[perm], shuffled)

    def test_width_disagreement_rejected(self):
        a = voxelize(np.zeros((1, 3)), np.ones((1, 2)), 0.5)
        b = voxelize(np.zeros((1, 3)), np.ones((1, 3)), 0.5)
        with pytest.raises(ConfigurationError):
            temporal_multimodal_gather(np.zeros((1, 3)), [a, b])
        with pytest.raises(ConfigurationError):
            temporal_multimodal_gather(np.zeros((1, 3)), [])


class TestImageFiles:
    def test_ppm_round_trip_is_lossless_on_the_byte_lattice(self, tmp_path):
        image = synthetic_feature_image(CALIB, 3, channels=3, seed=1)
        path = tmp_path / "img.ppm"
        write_image(path, image)
        back = read_image(path)
        assert np.array_equal(back.features, image.features)
        write_image(tmp_path / "again.ppm", back)
        assert (tmp_path / "again.ppm").read_bytes() == path.read_bytes()

    def test_pgm_round_trip(self, tmp_path):
        image = synthetic_feature_image(CALIB, 0, channels=1, seed=2)
        path = tmp_path / "img.pgm"
        write_image(path, image)
        assert np.array_equal(read_image(path).features, image.features)

    def test_fmap_round_trip_keeps_float32_exactly(self, tmp_path):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(10, 7, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "img.fmap"
        write_image(path, ImageFeatureMap(feats))
        back = read_image(path)
        assert np.array_equal(back.features, feats)

    def test_peek_image_size(self, tmp_path):
        write_image(tmp_path / "a.ppm", synthetic_feature_image(CALIB, 0))
        assert peek_image_size(tmp_path / "a.ppm") == (CALIB.width, CALIB.height)
        write_image(tmp_path / "b.fmap", ImageFeatureMap(np.zeros((5, 9, 2))))
        assert peek_image_size(tmp_path / "b.fmap") == (9, 5)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # gray\n# another comment\n2 1 255\n\x10\x20")
        image = read_image(path)
        assert image.channels == 1
        assert peek_image_size(path) == (2, 1)
        assert abs(image.features[0, 0, 0] - 0x10 / 255) < 1e-12

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6 2 2 255\n\x00\x00\x00")
        with pytest.raises(FormatError):
            read_image(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3 2 2 255\n0 0 0 0")
        with pytest.raises(FormatError):
            read_image(path)

    def test_unsupported_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5 1 1 65535\n\x00\x00")
        with pytest.raises(FormatError):
            read_image(path)

    def test_truncated_fmap_rejected(self, tmp_path):
        path = tmp_path / "bad.fmap"
        path.write_bytes(b"FMAP 1 2 2\n\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            read_image(path)

    @pytest.mark.parametrize("name, data, reason", [
        ("nan.fmap", b"FMAP 1 1 2\n" + np.array([0.5, np.nan], "<f4").tobytes(),
         "image features must be finite"),
        ("empty.ppm", b"P6 0 4 255\n", "bad image dimensions 0x4"),
    ])
    def test_decoded_image_failing_its_checks_names_the_file(self, tmp_path, name, data, reason):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(FormatError) as info:
            read_image(path)
        assert str(info.value) == f"{path}: {reason}"

    def test_ppm_needs_three_channels(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_image(tmp_path / "x.ppm", ImageFeatureMap(np.zeros((2, 2, 1))))

    def test_pnm_needs_unit_range(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_image(tmp_path / "x.ppm", ImageFeatureMap(np.full((2, 2, 3), 1.5)))

    def test_synthetic_image_writer_matches_write_image(self, tmp_path):
        from lidarseq.imaging import _write_synthetic_image

        calib = CameraSpec(width=13, height=7).calib()
        for index in range(3):
            want = tmp_path / f"want{index}.ppm"
            got = tmp_path / f"got{index}.ppm"
            write_image(want, synthetic_feature_image(calib, index, 3, seed=5))
            _write_synthetic_image(got, calib, index, seed=5)
            assert got.read_bytes() == want.read_bytes()
            assert read_image(got).features.shape == (7, 13, 3)

    def test_negative_seed_or_frame_index_is_named(self):
        with pytest.raises(InvalidInputError, match=r"^seed must be >= 0, got -1$"):
            synthetic_feature_image(CALIB, 4, seed=-1)
        with pytest.raises(InvalidInputError, match=r"^frame_index must be >= 0, got -2$"):
            synthetic_feature_image(CALIB, -2, seed=0)

    def test_seeds_follow_the_integer_rule(self):
        # a whole float or numpy integer draws as its int; anything else is named
        with pytest.raises(InvalidInputError, match=r"^seed must be an integer, got 1.5$"):
            synthetic_feature_image(CALIB, 4, seed=1.5)
        with pytest.raises(InvalidInputError, match=r"^seed must be an integer, got True$"):
            synthetic_feature_image(CALIB, 4, seed=True)
        want = synthetic_feature_image(CALIB, 4, seed=2).features
        for seed in (2.0, np.int64(2)):
            assert synthetic_feature_image(CALIB, 4, seed=seed).features.tobytes() == want.tobytes()

    def test_synthetic_images_are_deterministic(self):
        a = synthetic_feature_image(CALIB, 4, seed=7)
        b = synthetic_feature_image(CALIB, 4, seed=7)
        c = synthetic_feature_image(CALIB, 5, seed=7)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)
