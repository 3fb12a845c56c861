"""Sparse voxel maps: quantization, pooling, trilinear gather, fixed kernels.

Gather is checked against a pure-Python scalar oracle and the kernel against
a dense-array convolution; both oracles live in this file and share nothing
with the implementation beyond the kernel layout convention.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarseq.errors import ConfigurationError, FormatError, InvalidInputError
from lidarseq.voxels import (
    VoxelFeatureMap,
    apply_fixed_kernel,
    downsample,
    gather_trilinear,
    load_voxel_maps,
    save_voxel_maps,
    seeded_kernel,
    voxelize,
)


# ---------------------------------------------------------------------------
# oracles


def identity_kernel(width: int) -> np.ndarray:
    """3x3x3 kernel whose center tap is the identity map."""
    kernel = np.zeros((3, 3, 3, width, width))
    kernel[1, 1, 1] = np.eye(width)
    return kernel


def group_mean(rows) -> np.ndarray:
    """Mean of one voxel's feature rows, added in the order pooling adds them.

    ``np.add.reduceat`` adds a group's first row to the left-to-right sum of
    the others; numpy sums a run of 8 or more pairwise, so groups stay small
    here. Given the rows in input order, this reproduces the pooled bits.
    """
    assert len(rows) <= 8
    total = rows[0]
    if len(rows) > 1:
        rest = rows[1]
        for row in rows[2:]:
            rest = rest + row
        total = total + rest
    return total / len(rows)


def voxelize_oracle(xyz, feats, size, origin):
    """Hash-based mean pooling, one point at a time, rows kept in input order."""
    groups: dict[tuple, list] = {}
    for p, f in zip(xyz, feats):
        key = tuple(int(np.floor((p[a] - origin[a]) / size)) for a in range(3))
        groups.setdefault(key, []).append(np.asarray(f, dtype=np.float64))
    return {k: group_mean(rows) for k, rows in groups.items()}


def trilinear_oracle(vmap, query):
    """Scalar 8-corner interpolation with renormalization."""
    table = {tuple(c): f for c, f in zip(vmap.coords.tolist(), vmap.features)}
    u = [(query[a] - vmap.origin[a]) / vmap.voxel_size - 0.5 for a in range(3)]
    base = [int(np.floor(v)) for v in u]
    frac = [u[a] - base[a] for a in range(3)]
    acc = np.zeros(vmap.width)
    wsum = 0.0
    for corner in itertools.product((0, 1), repeat=3):
        w = 1.0
        for a in range(3):
            w *= frac[a] if corner[a] else 1.0 - frac[a]
        key = tuple(base[a] + corner[a] for a in range(3))
        if key in table:
            acc = acc + w * table[key]
            wsum += w
    if wsum <= 0.0:
        return np.zeros(vmap.width)
    return acc / wsum


def dense_conv_oracle(vmap, kernel):
    """Materialize the sparse map into a dense array and convolve it there."""
    lo = vmap.coords.min(axis=0) - 1
    hi = vmap.coords.max(axis=0) + 2
    shape = tuple((hi - lo).tolist())
    dense = np.zeros(shape + (vmap.width,))
    occupied = np.zeros(shape, dtype=bool)
    for c, f in zip(vmap.coords - lo, vmap.features):
        dense[tuple(c)] = f
        occupied[tuple(c)] = True
    c_out = kernel.shape[3]
    out = {}
    for c in vmap.coords:
        acc = np.zeros(c_out)
        for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3):
            n = tuple(c - lo + np.array([dx, dy, dz]))
            if occupied[n]:
                acc += kernel[dx + 1, dy + 1, dz + 1] @ dense[n]
        out[tuple(c.tolist())] = acc
    return out


def random_map(rng, count=40, width=4, size=0.5) -> VoxelFeatureMap:
    coords = rng.integers(-6, 7, size=(count, 3))
    coords = np.unique(coords, axis=0)
    feats = rng.normal(size=(coords.shape[0], width))
    return VoxelFeatureMap(size, rng.normal(size=3), coords, feats)


# ---------------------------------------------------------------------------


class TestVoxelize:
    def test_floor_quantization(self):
        out = voxelize(np.array([[0.1, 0.1, 0.1], [0.14, 0.12, 0.11]]), np.ones(2), 0.05)
        assert out.count == 1
        assert out.coords.tolist() == [[2, 2, 2]]

    def test_negative_coordinates_floor_down(self):
        out = voxelize(np.array([[-0.01, 0.0, 0.0]]), np.ones(1), 0.05)
        assert out.coords.tolist() == [[-1, 0, 0]]

    def test_origin_shifts_the_grid(self):
        out = voxelize(np.array([[1.0, 1.0, 1.0]]), np.ones(1), 0.5, origin=(1.0, 0.0, 0.0))
        assert out.coords.tolist() == [[0, 2, 2]]

    def test_mean_reduction_matches_hash_oracle(self):
        # the oracle keeps each voxel's rows in input order and adds them as
        # the pooling does, so the means agree to the bit
        rng = np.random.default_rng(3)
        xyz = rng.uniform(-4, 4, size=(500, 3))
        feats = rng.normal(size=(500, 5))
        got = voxelize(xyz, feats, 0.8, origin=(0.3, -0.2, 0.1))
        want = voxelize_oracle(xyz, feats, 0.8, (0.3, -0.2, 0.1))
        assert got.count == len(want)
        for coord, feat in zip(got.coords.tolist(), got.features):
            assert feat.tobytes() == want[tuple(coord)].tobytes()

    def test_coords_ascend_lexicographically(self):
        rng = np.random.default_rng(4)
        out = voxelize(rng.uniform(-2, 2, size=(300, 3)), rng.normal(size=300), 0.4)
        coords = out.coords
        as_tuples = [tuple(c) for c in coords.tolist()]
        assert as_tuples == sorted(as_tuples)

    def test_rejects_nan_points(self):
        xyz = np.zeros((2, 3))
        xyz[0, 1] = np.nan
        with pytest.raises(InvalidInputError):
            voxelize(xyz, np.ones(2), 0.1)

    def test_rejects_bad_voxel_size(self):
        with pytest.raises(InvalidInputError):
            voxelize(np.zeros((1, 3)), np.ones(1), 0.0)

    def test_rejects_points_past_the_int64_voxel_range(self):
        # an unchecked int64 cast wraps both into one voxel at x = -2**63
        message = "point 0 [1e+300, 0.0, 0.0] lies outside the int64 voxel range"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            voxelize([[1e300, 0, 0], [1e299, 0, 0]], [1.0, 2.0], 0.1)
        with pytest.raises(InvalidInputError, match=re.escape("point 1 [0.0, -1e+20, 0.0] lies outside")):
            voxelize([[0, 0, 0], [0, -1e20, 0]], [1.0, 2.0], 0.1)
        # the range is [-2**63, 2**63)
        assert voxelize([[-(2.0**63), 0, 0]], [1.0], 1.0).coords.tolist() == [[-(2**63), 0, 0]]
        with pytest.raises(InvalidInputError, match="point 0 "):
            voxelize([[2.0**63, 0, 0]], [1.0], 1.0)

    def test_rejects_points_that_are_not_n_by_3(self):
        # (3, 2) must not be read as two 3-D points
        for xyz in (np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(6), np.zeros((2, 3, 1))):
            message = f"points must have shape (N, 3), got {xyz.shape}"
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                voxelize(xyz, np.ones(2), 0.1)

    def test_rejects_features_that_are_not_rows(self):
        with pytest.raises(InvalidInputError, match=r"features shape \(2, 1, 1\) does not match 2 points"):
            voxelize(np.zeros((2, 3)), np.ones((2, 1, 1)), 0.1)

    def test_duplicate_constructor_coords_rejected(self):
        with pytest.raises(InvalidInputError):
            VoxelFeatureMap(0.1, np.zeros(3), np.zeros((2, 3), np.int64), np.ones((2, 1)))

    def test_constructor_rejects_coords_that_are_not_v_by_3(self):
        coords = np.arange(6).reshape(3, 2)
        message = "voxel coordinates must have shape (N, 3), got (3, 2)"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            VoxelFeatureMap(0.1, np.zeros(3), coords, np.ones((2, 3)))
        with pytest.raises(InvalidInputError, match=r"got \(6,\)"):
            VoxelFeatureMap(0.1, np.zeros(3), coords.ravel(), np.ones((2, 3)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(-3, 3))
    def test_whole_voxel_translation_shifts_coords(self, seed, k):
        rng = np.random.default_rng(seed)
        size = 0.25
        # keep points away from voxel boundaries so float error cannot flip a bin
        base = rng.integers(-8, 8, size=(50, 3)) * size
        xyz = base + size * rng.uniform(0.2, 0.8, size=(50, 3))
        feats = rng.normal(size=50)
        a = voxelize(xyz, feats, size)
        b = voxelize(xyz + np.array([k, 0, 0]) * size, feats, size)
        assert np.array_equal(b.coords, a.coords + np.array([k, 0, 0]))


class TestDownsample:
    def test_merges_coordinate_pairs(self):
        vmap = VoxelFeatureMap(
            0.5,
            np.zeros(3),
            np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]]),
            np.array([[1.0], [3.0], [10.0]]),
        )
        out = downsample(vmap)
        assert out.voxel_size == 1.0
        assert out.scale_level == vmap.scale_level + 1
        assert out.coords.tolist() == [[0, 0, 0], [1, 1, 1]]
        assert out.features.tolist() == [[2.0], [10.0]]

    def test_negative_coords_floor_toward_minus_infinity(self):
        vmap = VoxelFeatureMap(
            1.0, np.zeros(3), np.array([[-1, -3, 5]]), np.ones((1, 1))
        )
        assert downsample(vmap).coords.tolist() == [[-1, -2, 2]]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_count_never_increases(self, seed):
        vmap = random_map(np.random.default_rng(seed))
        assert downsample(vmap).count <= vmap.count

    def test_pooling_matches_a_hash_oracle_on_shuffled_input(self):
        # shuffled rows and up to 8 children per parent voxel; the oracle adds
        # each parent's children in the map's row order, as the pooling does
        rng = np.random.default_rng(21)
        coords = np.unique(rng.integers(-5, 6, size=(400, 3)), axis=0)
        shuffle = rng.permutation(coords.shape[0])
        vmap = VoxelFeatureMap(0.3, np.zeros(3), coords[shuffle], rng.normal(size=(shuffle.size, 4)))
        groups: dict[tuple, list] = {}
        for c, f in zip((vmap.coords // 2).tolist(), vmap.features):
            groups.setdefault(tuple(c), []).append(f)
        out = downsample(vmap)
        assert out.count == len(groups) < vmap.count
        assert max(map(len, groups.values())) > 2
        assert [tuple(c) for c in out.coords.tolist()] == sorted(groups)
        for c, f in zip(out.coords.tolist(), out.features):
            assert f.tobytes() == group_mean(groups[tuple(c)]).tobytes()

    def test_pooled_overflow_is_rejected(self):
        # each row is finite, their sum is not
        vmap = VoxelFeatureMap(1.0, np.zeros(3), np.array([[0, 0, 0], [1, 1, 1]]), np.full((2, 1), 1e308))
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="non-finite"):
            downsample(vmap)

    def test_two_downsamples_quarter_the_grid(self):
        rng = np.random.default_rng(8)
        vmap = random_map(rng, count=80)
        twice = downsample(downsample(vmap))
        assert set(map(tuple, twice.coords.tolist())) == set(
            map(tuple, (vmap.coords // 4).tolist())
        )
        assert twice.voxel_size == vmap.voxel_size * 4


class TestGatherTrilinear:
    def test_query_at_center_returns_that_feature(self):
        vmap = VoxelFeatureMap(
            0.5, np.zeros(3), np.array([[2, 3, 4]]), np.array([[7.0, -1.0]])
        )
        center = np.array([(2 + 0.5) * 0.5, (3 + 0.5) * 0.5, (4 + 0.5) * 0.5])
        got = gather_trilinear(vmap, center[None, :])
        assert np.abs(got - [[7.0, -1.0]]).max() < 1e-12

    def test_midpoint_between_two_centers_averages(self):
        vmap = VoxelFeatureMap(
            1.0, np.zeros(3), np.array([[0, 0, 0], [1, 0, 0]]), np.array([[2.0], [6.0]])
        )
        got = gather_trilinear(vmap, np.array([[1.0, 0.5, 0.5]]))
        assert np.abs(got - [[4.0]]).max() < 1e-12

    def test_empty_neighborhood_gives_zeros(self):
        vmap = VoxelFeatureMap(1.0, np.zeros(3), np.array([[0, 0, 0]]), np.ones((1, 2)))
        got = gather_trilinear(vmap, np.array([[50.0, 50.0, 50.0]]))
        assert np.array_equal(got, np.zeros((1, 2)))

    def test_renormalizes_over_partial_neighborhoods(self):
        # One occupied corner with weight w: renormalization must return its
        # feature untouched, not w * feature.
        vmap = VoxelFeatureMap(1.0, np.zeros(3), np.array([[0, 0, 0]]), np.array([[5.0]]))
        got = gather_trilinear(vmap, np.array([[0.9, 0.9, 0.9]]))
        assert np.abs(got - [[5.0]]).max() < 1e-12

    def test_constant_field_is_reproduced(self):
        rng = np.random.default_rng(5)
        coords = np.unique(rng.integers(-4, 5, size=(120, 3)), axis=0)
        vmap = VoxelFeatureMap(0.3, np.zeros(3), coords, np.full((coords.shape[0], 3), 2.5))
        queries = rng.uniform(-1.0, 1.0, size=(200, 3))
        got = gather_trilinear(vmap, queries)
        touched = np.abs(got).sum(axis=1) > 0
        assert touched.any()
        assert np.abs(got[touched] - 2.5).max() < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        vmap = random_map(rng, count=60, width=3)
        queries = rng.uniform(-4, 4, size=(300, 3)) * vmap.voxel_size + vmap.origin
        got = gather_trilinear(vmap, queries)
        for q, row in zip(queries, got):
            assert np.abs(row - trilinear_oracle(vmap, q)).max() < 1e-12

    def test_full_neighborhood_weights_sum_to_one(self):
        # All 8 corners occupied with feature 1.0: pre-normalized weights sum
        # to 1, so the gather returns exactly 1 regardless of position.
        coords = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int64)
        vmap = VoxelFeatureMap(1.0, np.zeros(3), coords, np.ones((8, 1)))
        rng = np.random.default_rng(7)
        queries = rng.uniform(0.5, 1.5, size=(100, 3))  # inside the corner cage
        got = gather_trilinear(vmap, queries)
        assert np.abs(got - 1.0).max() < 1e-12

    def test_rejects_queries_that_are_not_n_by_3(self):
        vmap = random_map(np.random.default_rng(14))
        with pytest.raises(InvalidInputError, match=r"query points must have shape \(N, 3\), got \(3, 2\)"):
            gather_trilinear(vmap, np.zeros((3, 2)))

    @pytest.mark.filterwarnings("error")  # an unchecked int64 cast warns before it wraps
    def test_rejects_queries_past_the_int64_voxel_range(self):
        vmap = VoxelFeatureMap(1.0, np.zeros(3), np.array([[0, 0, 0]]), np.ones((1, 1)))
        message = "query point 0 [1e+300, 0.0, 0.0] lies outside the int64 voxel range"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            gather_trilinear(vmap, [[1e300, 0, 0]])
        with pytest.raises(InvalidInputError, match=re.escape("query point 1 [0.0, -1e+20, 0.0] lies outside")):
            gather_trilinear(vmap, [[0, 0, 0], [0, -1e20, 0]])
        # the floats at either end of the range still gather, base + 1 included
        edges = [[np.nextafter(2.0**63, 0), 0, 0], [-(2.0**63), 0, 0]]
        assert gather_trilinear(vmap, edges).tolist() == [[0.0], [0.0]]

    def test_rejects_non_finite_queries(self):
        vmap = VoxelFeatureMap(1.0, np.zeros(3), np.array([[0, 0, 0]]), np.ones((1, 1)))
        with pytest.raises(InvalidInputError):
            gather_trilinear(vmap, np.array([[np.nan, 0, 0]]))


class TestFixedKernel:
    def test_identity_kernel_is_a_no_op(self):
        rng = np.random.default_rng(9)
        vmap = random_map(rng, count=50, width=4)
        out = apply_fixed_kernel(vmap, identity_kernel(4))
        assert np.array_equal(out.coords, vmap.coords)
        assert np.array_equal(out.features, vmap.features)

    def test_output_shares_the_input_coordinates(self):
        vmap = random_map(np.random.default_rng(19), width=3)
        out = apply_fixed_kernel(vmap, seeded_kernel(3, 0))
        assert out.coords is vmap.coords

    def test_overflowing_sums_are_rejected(self):
        coords = np.array([[0, 0, 0], [0, 0, 1]])
        vmap = VoxelFeatureMap(1.0, np.zeros(3), coords, np.full((2, 1), 1e308))
        kernel = np.ones((3, 3, 3, 1, 1))
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="non-finite"):
            apply_fixed_kernel(vmap, kernel)

    def test_submanifold_keeps_the_coordinate_set(self):
        rng = np.random.default_rng(10)
        vmap = random_map(rng)
        out = apply_fixed_kernel(vmap, seeded_kernel(vmap.width, 3))
        assert np.array_equal(out.coords, vmap.coords)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            vmap = random_map(rng, count=30, width=3)
            kernel = seeded_kernel(3, int(rng.integers(0, 1000)))
            got = apply_fixed_kernel(vmap, kernel)
            want = dense_conv_oracle(vmap, kernel)
            for coord, feat in zip(got.coords.tolist(), got.features):
                assert np.abs(feat - want[tuple(coord)]).max() < 1e-9

    def test_linear_in_the_features(self):
        rng = np.random.default_rng(12)
        vmap = random_map(rng, count=40, width=2)
        other = VoxelFeatureMap(
            vmap.voxel_size, vmap.origin, vmap.coords, rng.normal(size=vmap.features.shape)
        )
        summed = VoxelFeatureMap(
            vmap.voxel_size, vmap.origin, vmap.coords, vmap.features + other.features
        )
        kernel = seeded_kernel(2, 5)
        lhs = apply_fixed_kernel(summed, kernel).features
        rhs = apply_fixed_kernel(vmap, kernel).features + apply_fixed_kernel(other, kernel).features
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_seeded_kernel_is_deterministic(self):
        assert np.array_equal(seeded_kernel(4, 11), seeded_kernel(4, 11))
        assert not np.array_equal(seeded_kernel(4, 11), seeded_kernel(4, 12))

    def test_width_mismatch_is_rejected(self):
        rng = np.random.default_rng(13)
        vmap = random_map(rng, width=3)
        with pytest.raises(ConfigurationError):
            apply_fixed_kernel(vmap, identity_kernel(5))


def flat_map(rng, axis, width=3, size=0.5) -> VoxelFeatureMap:
    """A map one voxel thick along ``axis``: a packed key that ignored the
    box would send a tap just past it onto the next row of voxels."""
    coords = rng.integers(-4, 5, size=(40, 3))
    coords[:, axis] = 2
    coords = np.unique(coords, axis=0)
    return VoxelFeatureMap(size, rng.normal(size=3), coords, rng.normal(size=(coords.shape[0], width)))


class TestIndex:
    def test_rows_match_a_dict_of_coordinates(self):
        rng = np.random.default_rng(16)
        vmap = random_map(rng, count=80)
        table = {c: i for i, c in enumerate(map(tuple, vmap.coords.tolist()))}
        queries = rng.integers(-8, 9, size=(500, 3))
        want = [table.get(tuple(q), -1) for q in queries.tolist()]
        assert vmap.rows(queries).tolist() == want
        assert np.array_equal(vmap.rows(vmap.coords), np.arange(vmap.count))

    def test_derived_maps_index_their_own_rows(self):
        rng = np.random.default_rng(20)
        xyz = rng.uniform(-3, 3, size=(600, 3))
        fine = voxelize(xyz, rng.normal(size=(600, 2)), 0.5)
        coarse = downsample(fine)
        kernels = [apply_fixed_kernel(m, seeded_kernel(2, k)) for k, m in enumerate((fine, coarse))]
        for vmap in (fine, coarse, *kernels):
            table = {c: i for i, c in enumerate(map(tuple, vmap.coords.tolist()))}
            queries = np.concatenate([vmap.coords, rng.integers(-9, 10, size=(400, 3))])
            want = [table.get(tuple(q), -1) for q in queries.tolist()]
            assert vmap.rows(queries).tolist() == want

    def test_rows_rejects_coords_that_are_not_m_by_3(self):
        vmap = random_map(np.random.default_rng(22))
        with pytest.raises(InvalidInputError, match=r"got \(3, 2\)"):
            vmap.rows(np.zeros((3, 2), np.int64))

    def test_empty_map_misses_everything(self):
        vmap = VoxelFeatureMap(0.5, np.zeros(3), np.zeros((0, 3), np.int64), np.zeros((0, 2)))
        got = vmap.rows(np.array([[0, 0, 0], [-1, -1, -1], [5, 0, 2]]))
        assert got.dtype == np.int64
        assert got.tolist() == [-1, -1, -1]
        assert vmap.rows(np.zeros((0, 3), np.int64)).shape == (0,)

    def test_coordinates_outside_the_box_miss(self):
        coords = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]])
        vmap = VoxelFeatureMap(1.0, np.zeros(3), coords, np.ones((4, 1)))
        # the first five would pack onto occupied keys if the box were ignored
        outside = np.array([[0, -1, 1], [0, 0, 1], [-1, 2, 0], [0, 2, 0], [2, -2, 0],
                            [-(2**62), 0, 0], [2**62, 1, 0]])
        assert vmap.rows(outside).tolist() == [-1] * len(outside)
        assert vmap.rows(coords[::-1]).tolist() == [3, 2, 1, 0]

    def test_kernel_and_gather_on_one_voxel_thick_maps(self):
        rng = np.random.default_rng(17)
        for axis in range(3):
            vmap = flat_map(rng, axis)
            kernel = seeded_kernel(3, axis)
            got = apply_fixed_kernel(vmap, kernel)
            want = dense_conv_oracle(vmap, kernel)
            for coord, feat in zip(got.coords.tolist(), got.features):
                assert np.abs(feat - want[tuple(coord)]).max() < 1e-9
            queries = rng.uniform(-6, 6, size=(200, 3)) * vmap.voxel_size + vmap.origin
            for q, row in zip(queries, gather_trilinear(vmap, queries)):
                assert np.abs(row - trilinear_oracle(vmap, q)).max() < 1e-12

    def test_kernel_and_gather_on_a_one_voxel_wide_line(self):
        rng = np.random.default_rng(18)
        coords = np.zeros((9, 3), np.int64)
        coords[:, 0] = np.arange(-4, 5)
        vmap = VoxelFeatureMap(0.5, np.zeros(3), coords, rng.normal(size=(9, 2)))
        kernel = seeded_kernel(2, 4)
        got = apply_fixed_kernel(vmap, kernel)
        want = dense_conv_oracle(vmap, kernel)
        for coord, feat in zip(got.coords.tolist(), got.features):
            assert np.abs(feat - want[tuple(coord)]).max() < 1e-9
        queries = rng.uniform(-3, 3, size=(200, 3)) * vmap.voxel_size
        for q, row in zip(queries, gather_trilinear(vmap, queries)):
            assert np.abs(row - trilinear_oracle(vmap, q)).max() < 1e-12

    def test_voxels_far_apart_on_one_axis(self):
        far = 2**40
        coords = np.array([[far, 3, -2], [-far, 0, 1]])
        feats = np.array([[1.0, 2.0], [-3.0, 0.5]])
        vmap = VoxelFeatureMap(1.0, np.zeros(3), coords, feats)
        assert vmap.coords.tolist() == [[-far, 0, 1], [far, 3, -2]]
        assert vmap.rows(coords).tolist() == [1, 0]
        assert vmap.rows(np.array([[0, 0, 1], [far - 1, 3, -2]])).tolist() == [-1, -1]
        # the two voxels are not neighbors: each convolves as if alone
        kernel = seeded_kernel(2, 5)
        got = apply_fixed_kernel(vmap, kernel)
        for k in range(2):
            alone = VoxelFeatureMap(1.0, np.zeros(3), vmap.coords[k:k + 1], vmap.features[k:k + 1])
            want = dense_conv_oracle(alone, kernel)[tuple(vmap.coords[k].tolist())]
            assert np.abs(got.features[k] - want).max() < 1e-12
        queries = np.array([[far + 0.7, 3.4, -1.2], [-far + 0.2, 0.9, 1.5], [0.0, 0.0, 0.0]])
        for q, row in zip(queries, gather_trilinear(vmap, queries)):
            assert np.abs(row - trilinear_oracle(vmap, q)).max() < 1e-12

    def test_box_too_large_to_pack_is_rejected(self):
        coords = np.array([[0, 0, 0], [2**21, 2**21, 2**21]])
        with pytest.raises(InvalidInputError, match="2097153 x 2097153 x 2097153"):
            VoxelFeatureMap(1.0, np.zeros(3), coords, np.ones((2, 1)))
        # a (2**61 - 1) x 2 x 1 box is still indexed; a 2**61 x 2 x 1 box is 2**62
        edge = np.array([[0, 0, 0], [2**61 - 2, 1, 0]])
        vmap = VoxelFeatureMap(1.0, np.zeros(3), edge, np.ones((2, 1)))
        assert vmap.rows(edge[::-1]).tolist() == [1, 0]
        assert vmap.rows(np.array([[2**61 - 2, 0, 0], [2**61 - 1, 1, 0]])).tolist() == [-1, -1]
        with pytest.raises(InvalidInputError):
            VoxelFeatureMap(1.0, np.zeros(3), edge + [[0, 0, 0], [1, 0, 0]], np.ones((2, 1)))


class TestSerialization:
    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(15)
        maps = [random_map(rng), downsample(random_map(rng))]
        path = tmp_path / "maps.npz"
        save_voxel_maps(path, maps)
        loaded = load_voxel_maps(path)
        assert len(loaded) == 2
        for a, b in zip(maps, loaded):
            assert np.array_equal(a.coords, b.coords)
            assert np.array_equal(a.features, b.features)
            assert a.voxel_size == b.voxel_size
            assert a.scale_level == b.scale_level

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_voxel_maps(tmp_path / "nope.npz")

    def test_coords_that_are_not_v_by_3_are_a_format_error(self, tmp_path):
        # a (3, 2) coordinate array once loaded as the voxels [0, 1, 2] and [3, 4, 5]
        path = tmp_path / "maps.npz"
        np.savez(path, map_count=np.array(1), scale0_coords=np.arange(6).reshape(3, 2),
                 scale0_features=np.ones((2, 3)), scale0_meta=np.array([0.5, 0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(FormatError) as info:
            load_voxel_maps(path)
        assert str(info.value) == (
            f"{path}: not a voxel map archive (voxel coordinates must have shape (N, 3), got (3, 2))"
        )

    @pytest.mark.parametrize("key, value, reason", [
        ("map_count", np.array(0), "map_count is 0)"),
        ("map_count", np.array([1, 1]), ""),  # numpy words the scalar conversion error
        ("scale0_meta", np.array([0.5, 0.0, 0.0]), "scale0_meta holds 3 values, not 5)"),
    ])
    def test_malformed_archive_is_a_format_error_naming_the_file(self, tmp_path, key, value, reason):
        path = tmp_path / "maps.npz"
        save_voxel_maps(path, [random_map(np.random.default_rng(16))])
        with np.load(path) as data:
            arrays = {**data, key: value}
        np.savez(path, **arrays)
        with pytest.raises(FormatError) as info:
            load_voxel_maps(path)
        assert str(info.value).startswith(f"{path}: not a voxel map archive ({reason}")
