"""Pose and point container contracts.

Covers: orthonormality validation and repair, composition against a
sequential-application oracle, inversion round trips, rigidity, and the
immutability of the containers.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarseq.errors import InvalidInputError
from lidarseq.geometry import (
    _APPLY_BLOCK,
    LabeledCloud,
    ORTHONORMAL_STRICT_TOL,
    Pose,
    PointCloud,
    compose,
    invert,
    relative_pose,
)

from helpers import random_pose, random_rotation


def sequential_oracle(outer: Pose, inner: Pose, xyz: np.ndarray) -> np.ndarray:
    """Apply inner then outer, one point at a time, with plain float math."""
    out = np.empty_like(xyz)
    for i, p in enumerate(xyz):
        q = inner.rotation @ p + inner.translation
        out[i] = outer.rotation @ q + outer.translation
    return out


class TestPoseConstruction:
    def test_identity_round_trip(self):
        pose = Pose.identity()
        pts = np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(pose.apply(pts), pts)

    def test_quarter_turn_yaw(self):
        # 90 degree yaw sends +x to +y; translation applied afterwards.
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        pose = Pose.from_rotation_translation(rot, [1.0, 2.0, 3.0])
        moved = pose.apply(np.array([[1.0, 0.0, 0.0]]))
        assert np.allclose(moved, [[1.0, 3.0, 3.0]], atol=1e-15)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidInputError):
            Pose(np.eye(4))

    def test_rejects_non_orthonormal(self):
        mat = np.hstack([np.eye(3) * 1.01, np.zeros((3, 1))])
        with pytest.raises(InvalidInputError):
            Pose(mat)

    def test_rejects_reflection(self):
        rot = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidInputError):
            Pose.from_rotation_translation(rot, np.zeros(3))

    def test_rejects_nan(self):
        mat = np.hstack([np.eye(3), np.zeros((3, 1))])
        mat[0, 3] = np.nan
        with pytest.raises(InvalidInputError):
            Pose(mat)

    def test_print_rounded_rotation_is_repaired(self):
        # Rounding to 7 decimals mimics what a pose file does to a rotation.
        rng = np.random.default_rng(7)
        for _ in range(25):
            rot = np.round(random_rotation(rng), 7)
            pose = Pose.from_rotation_translation(rot, np.zeros(3))
            gram = pose.rotation.T @ pose.rotation
            assert np.abs(gram - np.eye(3)).max() < ORTHONORMAL_STRICT_TOL

    def test_clean_rotation_kept_verbatim(self):
        rng = np.random.default_rng(11)
        rot = random_rotation(rng)
        pose = Pose.from_rotation_translation(rot, np.zeros(3))
        assert np.array_equal(pose.rotation, rot)

    def test_matrix_is_frozen(self):
        pose = Pose.identity()
        with pytest.raises(ValueError):
            pose.matrix[0, 0] = 2.0


class TestComposeInvert:
    def test_compose_matches_sequential_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            outer, inner = random_pose(rng), random_pose(rng)
            pts = rng.normal(size=(100, 3)) * 40
            expected = sequential_oracle(outer, inner, pts)
            got = compose(outer, inner).apply(pts)
            assert np.abs(got - expected).max() < 1e-9

    def test_invert_then_apply_is_identity(self):
        rng = np.random.default_rng(4)
        pose = random_pose(rng)
        both = compose(invert(pose), pose)
        assert np.abs(both.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(both.translation).max() < 1e-12

    def test_relative_pose_moves_between_frames(self):
        rng = np.random.default_rng(5)
        world_a, world_b = random_pose(rng), random_pose(rng)
        p_in_b = rng.normal(size=(50, 3))
        p_world = world_b.apply(p_in_b)
        p_in_a = invert(world_a).apply(p_world)
        got = relative_pose(world_a, world_b).apply(p_in_b)
        assert np.abs(got - p_in_a).max() < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rigidity_preserves_pairwise_distances(self, seed):
        rng = np.random.default_rng(seed)
        pose = random_pose(rng)
        pts = rng.normal(size=(12, 3)) * 25
        moved = pose.apply(pts)
        before = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        after = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
        assert np.abs(before - after).max() < 1e-9


class TestPoseApplyBlocks:
    """apply runs in blocks of _APPLY_BLOCK rows; a row's bits must not
    depend on the block, the batch or the output it lands in."""

    @pytest.fixture
    def pose_and_points(self):
        rng = np.random.default_rng(9)
        return random_pose(rng), rng.normal(size=(2 * _APPLY_BLOCK + 7, 3)) * 40

    def test_whole_array_matches_rows_and_subsets(self, pose_and_points):
        pose, xyz = pose_and_points
        whole = pose.apply(xyz)
        rot, trans = pose.rotation, pose.translation
        unblocked = np.stack(
            [rot[a, 0] * xyz[:, 0] + rot[a, 1] * xyz[:, 1] + rot[a, 2] * xyz[:, 2] + trans[a]
             for a in range(3)], axis=1,
        )
        assert whole.shape == xyz.shape and whole.tobytes() == unblocked.tobytes()
        rows = np.concatenate([pose.apply(xyz[i : i + 1]) for i in range(xyz.shape[0])])
        assert rows.tobytes() == whole.tobytes()
        rng = np.random.default_rng(10)
        for size in (1, 5, _APPLY_BLOCK - 1, _APPLY_BLOCK + 1, xyz.shape[0] - 3):
            pick = np.sort(rng.choice(xyz.shape[0], size=size, replace=False))
            assert pose.apply(xyz[pick]).tobytes() == whole[pick].tobytes()
        assert pose.apply(xyz[::3]).tobytes() == whole[::3].tobytes()

    def test_output_may_alias_the_input(self, pose_and_points):
        pose, xyz = pose_and_points
        moved = xyz.copy()
        assert pose.apply(moved, out=moved) is moved
        assert moved.tobytes() == pose.apply(xyz).tobytes()

    @pytest.mark.parametrize("layout", ["row-major", "column-stored"])
    def test_layouts_and_outputs_give_the_same_bits(self, pose_and_points, layout):
        pose, rows = pose_and_points
        want = pose.apply(rows).tobytes()  # tobytes reads row-major whatever the layout
        xyz = rows if layout == "row-major" else np.ascontiguousarray(rows.T).T
        new = pose.apply(xyz)
        assert new.tobytes() == want and new.T.flags.c_contiguous  # a new output is column-stored
        for fresh in (np.empty((3, xyz.shape[0])).T, np.empty(xyz.shape)):
            assert pose.apply(xyz, out=fresh) is fresh and fresh.tobytes() == want
        moved = xyz.copy(order="K")
        assert pose.apply(moved, out=moved) is moved and moved.tobytes() == want
        assert moved.flags.f_contiguous == (layout == "column-stored")

    def test_zero_rows(self):
        moved = random_pose(np.random.default_rng(2)).apply(np.empty((0, 3)))
        assert moved.shape == (0, 3) and moved.dtype == np.float64

    @pytest.mark.parametrize("shape", [(5, 2), (3,), (2, 3, 3), (4, 4)])
    def test_points_that_are_not_n_by_3_are_rejected(self, shape):
        with pytest.raises(InvalidInputError, match=rf"\(N, 3\), got {re.escape(str(shape))}"):
            Pose.identity().apply(np.zeros(shape))

    @pytest.mark.parametrize("dtype, shape", [(np.float32, (5, 3)), (np.int64, (5, 3)),
                                              (np.float64, (4, 3)), (np.float64, (15,))])
    def test_out_of_another_dtype_or_shape_is_rejected(self, dtype, shape):
        xyz = np.ones((5, 3))
        out = np.full(shape, 7, dtype=dtype)
        with pytest.raises(InvalidInputError, match=re.escape(f"{(5, 3)}, got {np.dtype(dtype)} {shape}")):
            Pose.identity().apply(xyz, out=out)
        assert (out == 7).all()


class TestPointContainers:
    def test_cloud_shape_and_count(self):
        cloud = PointCloud(np.zeros((4, 3)), np.full(4, 0.5))
        assert cloud.count == 4

    def test_cloud_rejects_nan_coordinates(self):
        xyz = np.zeros((2, 3))
        xyz[1, 2] = np.inf
        with pytest.raises(InvalidInputError):
            PointCloud(xyz, np.zeros(2))

    def test_cloud_rejects_out_of_range_intensity(self):
        with pytest.raises(InvalidInputError):
            PointCloud(np.zeros((1, 3)), np.array([1.5]))

    def test_cloud_rejects_points_that_are_not_n_by_3(self):
        # a (3, 2) array must not be read as two 3-D points
        for xyz in (np.zeros((3, 2)), np.zeros(6), np.zeros((2, 3, 1))):
            message = f"points must have shape (N, 3), got {xyz.shape}"
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                PointCloud(xyz, np.zeros(2))

    def test_cloud_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            PointCloud(np.zeros((3, 3)), np.zeros(2))

    def test_labeled_rejects_length_mismatch(self):
        cloud = PointCloud(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(InvalidInputError):
            LabeledCloud(cloud, np.zeros(2, np.int64), np.zeros(3, np.int64))

    def test_cloud_stores_columns_copying_only_row_major_input(self):
        rows = np.arange(12.0).reshape(4, 3)
        cloud = PointCloud(rows, np.zeros(4))
        assert cloud.xyz.T.flags.c_contiguous and np.array_equal(cloud.xyz, rows)
        assert not np.shares_memory(cloud.xyz, rows)
        columns = np.ascontiguousarray(rows.T).T
        assert np.shares_memory(PointCloud(columns, np.zeros(4)).xyz, columns)
        assert columns.flags.writeable  # frozen as a view of its own

    @pytest.mark.parametrize("given, kept", [(np.float64, np.float64), (np.float32, np.float32),
                                              (np.float16, np.float64), (np.int64, np.float64)])
    def test_cloud_keeps_float32_and_widens_the_rest_to_float64(self, given, kept):
        xyz, intensity = np.arange(12).reshape(4, 3).astype(given), np.zeros(4, given)
        cloud = PointCloud(xyz, intensity)
        assert cloud.xyz.dtype == cloud.intensity.dtype == kept
        assert np.array_equal(cloud.xyz, xyz) and cloud.xyz.T.flags.c_contiguous

    @pytest.mark.parametrize("given, kept", [(np.int64, np.int64), (np.uint16, np.uint16),
                                              (np.int32, np.int64), (np.uint32, np.int64)])
    def test_labeled_keeps_uint16_and_widens_the_rest_to_int64(self, given, kept):
        labeled = LabeledCloud(PointCloud(np.zeros((3, 3)), np.zeros(3)), np.arange(3, dtype=given),
                               np.full(3, 7, given))
        assert labeled.semantic.dtype == labeled.instance.dtype == kept
        assert labeled.semantic.tolist() == [0, 1, 2] and labeled.instance.tolist() == [7, 7, 7]

    @pytest.mark.parametrize("rows", [7, _APPLY_BLOCK + 9, 2 * _APPLY_BLOCK + 7])  # none a multiple of the block
    def test_float32_points_move_as_their_float64_copy(self, rows):
        rng = np.random.default_rng(4)
        pose, xyz = random_pose(rng), (rng.normal(size=(rows, 3)) * 40).astype(np.float32)
        want = pose.apply(xyz.astype(np.float64))
        for layout in (xyz, np.ascontiguousarray(xyz.T).T):
            moved = pose.apply(layout)
            assert moved.dtype == np.float64 and moved.tobytes() == want.tobytes()
            out = np.empty((3, xyz.shape[0])).T
            assert pose.apply(layout, out=out) is out and out.tobytes() == want.tobytes()

    def test_arrays_are_frozen(self):
        xyz = np.zeros((2, 3))
        cloud = PointCloud(xyz, np.zeros(2))
        with pytest.raises(ValueError):
            cloud.xyz[0, 0] = 1.0
        assert xyz.flags.writeable  # the caller's own array is left as it was
