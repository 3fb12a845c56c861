"""Masked distillation loss: selection, arithmetic, and its invariants."""

import math

import numpy as np
import pytest

from lidarseq.distill import distill_loss, shared_selection
from lidarseq.errors import ConfigurationError
from lidarseq.voxels import VoxelFeatureMap


def make_map(coords, feats, size=0.5, origin=(0.0, 0.0, 0.0), level=0):
    return VoxelFeatureMap(
        size, np.asarray(origin, dtype=np.float64), np.asarray(coords), np.asarray(feats), level
    )


def random_pair(rng, width=4, overlap=True):
    pool = rng.integers(-5, 6, size=(60, 3))
    a = np.unique(pool[:40], axis=0)
    b = np.unique(pool[20:], axis=0) if overlap else a + 100
    return (
        make_map(a, rng.normal(size=(a.shape[0], width))),
        make_map(b, rng.normal(size=(b.shape[0], width))),
    )


def loss_oracle(student, teacher):
    """Scalar brute-force loop over the coordinate intersection."""
    table = {tuple(c): f for c, f in zip(teacher.coords.tolist(), teacher.features)}
    norms = []
    for c, f in zip(student.coords.tolist(), student.features):
        other = table.get(tuple(c))
        if other is None:
            continue
        norms.append(math.sqrt(sum((x - y) ** 2 for x, y in zip(f, other))))
    return sum(norms) / len(norms) if norms else 0.0


class TestSharedSelection:
    def test_identical_maps_cover_every_voxel(self):
        rng = np.random.default_rng(0)
        vmap, _ = random_pair(rng)
        sel = shared_selection(vmap, vmap)
        assert sel.count == vmap.count
        assert np.array_equal(sel.coords, vmap.coords)
        assert np.array_equal(sel.student_index, np.arange(vmap.count))
        assert np.array_equal(sel.teacher_index, np.arange(vmap.count))

    def test_disjoint_maps_share_nothing(self):
        rng = np.random.default_rng(1)
        a, b = random_pair(rng, overlap=False)
        assert shared_selection(a, b).count == 0

    def test_matches_hash_set_intersection(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = random_pair(rng)
            sel = shared_selection(a, b)
            want = set(map(tuple, a.coords.tolist())) & set(map(tuple, b.coords.tolist()))
            assert set(map(tuple, sel.coords.tolist())) == want
            # indices really point at the rows bearing those coordinates
            assert np.array_equal(a.coords[sel.student_index], sel.coords)
            assert np.array_equal(b.coords[sel.teacher_index], sel.coords)

    def test_coords_ascend(self):
        rng = np.random.default_rng(3)
        a, b = random_pair(rng)
        got = [tuple(c) for c in shared_selection(a, b).coords.tolist()]
        assert got == sorted(got)

    def test_grid_parameter_mismatches_are_rejected(self):
        coords = np.array([[0, 0, 0]])
        feats = np.ones((1, 2))
        base = make_map(coords, feats)
        with pytest.raises(ConfigurationError):
            shared_selection(base, make_map(coords, feats, size=0.25))
        with pytest.raises(ConfigurationError):
            shared_selection(base, make_map(coords, feats, origin=(1.0, 0.0, 0.0)))
        with pytest.raises(ConfigurationError):
            shared_selection(base, make_map(coords, feats, level=1))


class TestSharedSelectionIndexEdges:
    def check(self, student, teacher):
        sel = shared_selection(student, teacher)
        want = set(map(tuple, student.coords.tolist())) & set(map(tuple, teacher.coords.tolist()))
        assert set(map(tuple, sel.coords.tolist())) == want
        assert np.array_equal(student.coords[sel.student_index], sel.coords)
        assert np.array_equal(teacher.coords[sel.teacher_index], sel.coords)
        assert abs(distill_loss(student, teacher) - loss_oracle(student, teacher)) < 1e-12
        return sel

    def test_one_voxel_thick_teacher(self):
        rng = np.random.default_rng(12)
        for axis in range(3):
            coords = rng.integers(-4, 5, size=(50, 3))
            coords[:, axis] = 0
            teacher_coords = np.unique(coords, axis=0)
            # the student sits one layer above the flat teacher, and on it
            above = teacher_coords.copy()
            above[:, axis] = 1
            student_coords = np.unique(np.vstack([above, teacher_coords[::2]]), axis=0)
            teacher = make_map(teacher_coords, rng.normal(size=(teacher_coords.shape[0], 3)))
            student = make_map(student_coords, rng.normal(size=(student_coords.shape[0], 3)))
            assert self.check(student, teacher).count == teacher_coords[::2].shape[0]

    def test_student_entirely_outside_the_teacher_box(self):
        rng = np.random.default_rng(13)
        teacher = make_map([[0, 0, 0], [0, 1, 0], [1, 0, 0]], rng.normal(size=(3, 2)))
        student = make_map([[0, -1, 1], [0, 0, 1], [-1, 2, 0], [2, 0, 0]], rng.normal(size=(4, 2)))
        assert self.check(student, teacher).count == 0

    def test_voxels_far_apart_on_one_axis(self):
        rng = np.random.default_rng(14)
        far = 2**40
        teacher = make_map([[-far, 0, 0], [far, 0, 0], [0, 0, 0]], rng.normal(size=(3, 2)))
        student = make_map([[far, 0, 0], [far - 1, 0, 0], [-far, 0, 0]], rng.normal(size=(3, 2)))
        sel = self.check(student, teacher)
        assert sel.coords.tolist() == [[-far, 0, 0], [far, 0, 0]]

    def test_empty_maps(self):
        empty = make_map(np.zeros((0, 3), np.int64), np.zeros((0, 2)))
        full = make_map([[0, 0, 0]], [[1.0, 2.0]])
        for a, b in ((empty, full), (full, empty), (empty, empty)):
            assert self.check(a, b).count == 0


class TestDistillLoss:
    def test_identical_maps_give_exactly_zero(self):
        rng = np.random.default_rng(4)
        vmap, _ = random_pair(rng)
        assert distill_loss(vmap, vmap) == 0.0

    def test_three_four_difference_gives_exactly_five(self):
        student = make_map([[0, 0, 0]], [[3.0, 4.0]])
        teacher = make_map([[0, 0, 0]], [[0.0, 0.0]])
        assert distill_loss(student, teacher) == 5.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = random_pair(rng, width=int(rng.integers(1, 6)))
            assert abs(distill_loss(a, b) - loss_oracle(a, b)) < 1e-12

    def test_empty_intersection_is_zero(self):
        rng = np.random.default_rng(6)
        a, b = random_pair(rng, overlap=False)
        assert distill_loss(a, b) == 0.0

    def test_symmetric_in_its_arguments(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = random_pair(rng)
            assert distill_loss(a, b) == distill_loss(b, a)

    def test_scales_with_abs_alpha(self):
        rng = np.random.default_rng(8)
        a, b = random_pair(rng)
        base = distill_loss(a, b)
        for alpha in (2.0, -3.0, 0.5):
            sa = make_map(a.coords, a.features * alpha, a.voxel_size, a.origin)
            sb = make_map(b.coords, b.features * alpha, b.voxel_size, b.origin)
            assert abs(distill_loss(sa, sb) - abs(alpha) * base) < 1e-12

    def test_triangle_bound_on_shared_sparsity(self):
        rng = np.random.default_rng(9)
        coords = np.unique(rng.integers(-4, 5, size=(30, 3)), axis=0)
        maps = [make_map(coords, rng.normal(size=(coords.shape[0], 3))) for _ in range(3)]
        a, b, c = maps
        assert distill_loss(a, c) <= distill_loss(a, b) + distill_loss(b, c) + 1e-12

    def test_averages_the_per_voxel_norms(self):
        # norms 3 and 4: their mean, not the norm of the stacked difference (5)
        student = make_map([[0, 0, 0], [1, 0, 0]], [[3.0], [0.0]])
        teacher = make_map([[0, 0, 0], [1, 0, 0]], [[0.0], [4.0]])
        assert distill_loss(student, teacher) == 3.5

    def test_width_mismatch_is_rejected(self):
        a = make_map([[0, 0, 0]], [[1.0, 2.0]])
        b = make_map([[0, 0, 0]], [[1.0]])
        with pytest.raises(ConfigurationError):
            distill_loss(a, b)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a, b = random_pair(rng)
            assert distill_loss(a, b) >= 0.0
