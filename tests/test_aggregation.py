"""Flexible step aggregation: index sets, divisions, row order and the full path.

The randomized checks compare against the concat-all-then-filter oracle from
helpers.py, which transforms every sweep first and filters afterwards; the
implementation masks first, so agreement is meaningful.
"""

import dataclasses
import io
import math
import threading
import warnings

import numpy as np
import pytest

from lidarseq import aggregation
from lidarseq.aggregation import (
    DEFAULT_CLASS_SCORES,
    DIVISION_PRESET_NAMES,
    INFINITE_STEP,
    AggregatedCloud,
    ClassGroup,
    DistanceSplit,
    GroupDivision,
    aggregate_direct,
    aggregate_fsa,
    aggregate_stepped,
    division_preset,
    load_division,
    resolve_division,
    sampled_offsets,
)
from lidarseq.errors import ConfigurationError, InvalidInputError
from lidarseq.geometry import _APPLY_BLOCK, LabeledCloud, PointCloud, Pose, relative_pose
from lidarseq.sequence import SequenceFrame, corrupt_labels, generate_synthetic

from helpers import (
    agg_rows,
    fsa_oracle_rows,
    random_division,
    random_scene_spec,
    sort_rows,
)


def scene(frame_count=8, points=300, seed=1, classes=None):
    from helpers import SyntheticSceneSpec, EgoSpec

    return generate_synthetic(
        SyntheticSceneSpec(
            frame_count=frame_count,
            points_per_frame=points,
            classes=classes or {1: 0.3, 9: 0.4, 13: 0.3},
            ego=EgoSpec(velocity=(1.5, 0.2, 0.0), yaw_rate_deg=5.0),
            seed=seed,
        )
    )


def same_bits(a, b) -> bool:
    """Row-for-row, bit-for-bit equality of two aggregated clouds."""
    rows_a, rows_b = agg_rows(a), agg_rows(b)
    return rows_a.shape == rows_b.shape and rows_a.tobytes() == rows_b.tobytes()


def relabeled(frame, point: int, class_id: int):
    """The frame with one point's semantic class replaced."""
    semantic = frame.labeled.semantic.copy()
    semantic[point] = class_id
    labeled = LabeledCloud(frame.labeled.cloud, semantic, frame.labeled.instance)
    return dataclasses.replace(frame, labeled=labeled)


class TestStepOffsets:
    def test_window_16_step_2_gives_8_frames(self):
        assert sampled_offsets([2], 16) == [2, 4, 6, 8, 10, 12, 14, 16]

    def test_window_16_step_4(self):
        assert sampled_offsets([4], 16) == [4, 8, 12, 16]

    def test_step_larger_than_window_is_empty(self):
        assert sampled_offsets([5], 4) == []

    def test_infinite_step_is_empty(self):
        assert sampled_offsets([INFINITE_STEP], 16) == []

    def test_sampled_offsets_are_the_ascending_union(self):
        assert sampled_offsets([4, INFINITE_STEP, 2, 4], 16) == sampled_offsets([2], 16)
        assert sampled_offsets([3, 4], 16) == [3, 4, 6, 8, 9, 12, 15, 16]
        assert sampled_offsets([INFINITE_STEP], 16) == sampled_offsets([], 16) == []
        assert sampled_offsets([2], -1) == []

    def test_sampled_offsets_reject_a_bad_step(self):
        for step in (0, -2, 1.5):
            with pytest.raises(ConfigurationError, match="positive integer"):
                sampled_offsets([2, step], 16)

    def test_sampled_offsets_reject_a_non_finite_window(self):
        for window in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="window must be an integer"):
                sampled_offsets([2], window)


class TestAggregateDirect:
    def test_window_zero_is_the_present_sweep(self):
        frames = scene()
        out = aggregate_direct(frames, 5, 0)
        assert np.array_equal(out.labeled.cloud.xyz, frames[5].labeled.cloud.xyz)
        assert np.array_equal(out.labeled.semantic, frames[5].labeled.semantic)
        assert np.all(out.source_frame == 5)
        assert np.all(out.source_step == 0)

    def test_full_window_counts_add_up(self):
        frames = scene(frame_count=6, points=300)
        out = aggregate_direct(frames, 5, 5)
        assert out.count == 6 * 300

    def test_truncation_at_sequence_start(self):
        frames = scene(frame_count=6)
        out = aggregate_direct(frames, 1, 5)
        assert set(np.unique(out.source_frame)) == {0, 1}

    def test_present_first_then_descending_sources(self):
        frames = scene(frame_count=5, points=10)
        out = aggregate_direct(frames, 4, 3)
        assert out.source_frame.tolist() == [4] * 10 + [3] * 10 + [2] * 10 + [1] * 10

    def test_world_coordinates_are_preserved(self):
        # The synthetic world is static, so any re-aggregated background
        # point must land on its original world position.
        frames = scene()
        out = aggregate_direct(frames, 7, 4)
        world = frames[7].pose.apply(out.labeled.cloud.xyz)
        still = out.labeled.instance == 0
        by_frame = {f.index: f for f in frames}
        for idx in np.unique(out.source_frame):
            pick = (out.source_frame == idx) & still
            src = by_frame[idx]
            src_world = src.pose.apply(src.labeled.cloud.xyz[src.labeled.instance == 0])
            assert np.abs(world[pick] - src_world).max() < 1e-9

    def test_missing_reference_frame_is_rejected(self):
        frames = scene()
        with pytest.raises(InvalidInputError):
            aggregate_direct(frames, 99, 2)

    def test_hole_in_history_is_rejected(self):
        frames = scene()
        gappy = [f for f in frames if f.index != 5]
        with pytest.raises(InvalidInputError, match="missing"):
            aggregate_direct(gappy, 7, 4)

    def test_negative_window_is_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate_direct(scene(), 5, -1)

    def test_non_finite_window_is_rejected(self):
        frames = scene()
        for bad in (math.inf, -math.inf, math.nan, 2.5):
            with pytest.raises(InvalidInputError, match="window must be a non-negative integer"):
                aggregate_direct(frames, 5, bad)
            with pytest.raises(InvalidInputError, match="window must be a non-negative integer"):
                aggregate_stepped(frames, 5, bad, 2)


class TestAggregateStepped:
    def test_stepped_2_over_16_draws_8_past_sweeps(self):
        frames = scene(frame_count=17, points=50)
        out = aggregate_stepped(frames, 16, 16, 2)
        assert out.count == 50 * 9
        assert sorted(set(out.source_frame.tolist())) == [0, 2, 4, 6, 8, 10, 12, 14, 16]

    def test_step_beyond_window_keeps_only_present(self):
        frames = scene(frame_count=6, points=40)
        out = aggregate_stepped(frames, 5, 3, 4)
        assert out.count == 40
        assert np.all(out.source_frame == 5)

    def test_step_one_matches_direct(self):
        frames = scene(frame_count=7, points=80)
        assert same_bits(aggregate_stepped(frames, 6, 4, 1), aggregate_direct(frames, 6, 4))
        # one group holding every class at step s is stepped aggregation
        for step in (1, 2, 3):
            division = GroupDivision((ClassGroup(frozenset({1, 9, 13}), step),), window=4)
            assert same_bits(
                aggregate_fsa(frames, 6, division), aggregate_stepped(frames, 6, 4, step)
            )


class TestAggregateGroup:
    """The past rows one group contributes to aggregate_fsa."""

    def test_infinite_group_contributes_nothing(self):
        frames = scene()
        division = GroupDivision((ClassGroup(frozenset({1, 9, 13}), INFINITE_STEP),))
        out = aggregate_fsa(frames, 7, division)
        assert out.count == frames[7].count
        assert np.all(out.source_step == 0)

    def test_step4_window16_samples_four_sweeps(self):
        frames = scene(frame_count=20, points=200)
        division = GroupDivision((ClassGroup(frozenset({9}), 4),), window=16)
        out = aggregate_fsa(frames, 18, division)
        past = out.source_step != 0
        assert sorted(set(out.source_frame[past].tolist())) == [2, 6, 10, 14]
        assert np.all(out.source_step[past] == 4)
        assert set(np.unique(out.labeled.semantic[past])) == {9}

    def test_sources_ordered_by_ascending_offset(self):
        frames = scene(frame_count=20, points=200)
        division = GroupDivision((ClassGroup(frozenset({9}), 4),), window=16)
        out = aggregate_fsa(frames, 18, division)
        order = out.source_frame[np.sort(np.unique(out.source_frame, return_index=True)[1])]
        assert order.tolist() == [18, 14, 10, 6, 2]


class TestDistanceSplit:
    def test_near_points_sampled_at_doubled_step(self):
        # Class 9 background spans the whole square, so each sweep has both
        # near (< 12 m) and far points. Base step 2, near step 4.
        frames = scene(frame_count=17, points=400)
        division = GroupDivision(
            (
                ClassGroup(
                    frozenset({9}),
                    2,
                    DistanceSplit(threshold_m=12.0, near_step_multiplier=2),
                ),
            ),
            window=16,
        )
        out = aggregate_fsa(frames, 16, division)
        by_frame = {f.index: f for f in frames}
        for idx in np.unique(out.source_frame[out.source_step != 0]):
            offset = 16 - idx
            src = by_frame[idx]
            own_range = np.linalg.norm(src.labeled.cloud.xyz, axis=1)
            is9 = src.labeled.semantic == 9
            expect_far = int((is9 & (own_range >= 12.0)).sum())
            expect_near = int((is9 & (own_range < 12.0)).sum()) if offset % 4 == 0 else 0
            got = int((out.source_frame == idx).sum())
            assert got == expect_far + expect_near
        near_rows = out.source_step == 4
        assert near_rows.any() and (out.source_step == 2).any()
        assert set(np.unique(out.labeled.semantic[out.source_step != 0])) == {9}
        # near-tagged points only come from offsets divisible by 4
        assert set((16 - out.source_frame[near_rows]).tolist()) <= {4, 8, 12, 16}

    def test_points_on_the_threshold_follow_the_oracle(self):
        # Points at 30 m exactly and one ulp either side, on the axes, on
        # diagonals and in random directions; the oracle measures range with
        # np.linalg.norm, so the split must decide every one the same way.
        rng = np.random.default_rng(5)
        directions = rng.normal(size=(200, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        exact = np.vstack([np.eye(3) * 30.0, -np.eye(3) * 30.0, [[18.0, 24.0, 0.0]],
                           [[0.0, -18.0, 24.0]], [[10.0, 20.0, 20.0]], directions * 30.0])
        xyz = np.vstack([exact, np.nextafter(exact, 0.0), np.nextafter(exact, 2.0 * exact)])
        labeled = LabeledCloud(PointCloud(xyz, np.full(len(xyz), 0.5)),
                               np.ones(len(xyz), np.int64), np.zeros(len(xyz), np.int64))
        frames = [SequenceFrame(i, labeled, Pose.from_rotation_translation(np.eye(3), [i, 0.0, 0.0]),
                                0.1 * i) for i in range(3)]
        division = GroupDivision((ClassGroup(frozenset({1}), 1, DistanceSplit(30.0)),), window=2)
        out = aggregate_fsa(frames, 2, division)
        want = fsa_oracle_rows(frames, 2, division)
        assert np.array_equal(sort_rows(agg_rows(out)), sort_rows(want))
        # offset 1 drops exactly the near points; (30, 0, 0) and beyond stay
        near = np.linalg.norm(xyz, axis=1) < 30.0
        assert 0 < near.sum() < len(xyz)
        assert (out.source_frame == 1).sum() == (~near).sum()
        assert near[len(exact) + 0] and not near[0] and not near[2 * len(exact)]

    def test_split_on_infinite_step_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassGroup(frozenset({1}), INFINITE_STEP, DistanceSplit(threshold_m=30.0))


class TestAggregateFsa:
    def test_matches_oracle_on_random_scenes(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            spec = random_scene_spec(rng, max_frames=8, max_points=400)
            frames = generate_synthetic(spec)
            division = random_division(rng, sorted(spec.classes))
            t = int(rng.integers(0, spec.frame_count))
            got = sort_rows(agg_rows(aggregate_fsa(frames, t, division)))
            want = sort_rows(fsa_oracle_rows(frames, t, division))
            assert np.array_equal(got, want)

    def test_output_is_subset_of_direct(self):
        rng = np.random.default_rng(77)
        spec = random_scene_spec(rng)
        frames = generate_synthetic(spec)
        division = random_division(rng, sorted(spec.classes))
        t = spec.frame_count - 1
        fsa = aggregate_fsa(frames, t, division)
        direct = aggregate_direct(frames, t, division.window)

        def keys(agg):
            rows = agg_rows(agg)[:, :-1]  # drop the step tag, direct uses 1
            return [row.tobytes() for row in np.ascontiguousarray(rows)]

        from collections import Counter

        fsa_keys, direct_keys = Counter(keys(fsa)), Counter(keys(direct))
        assert all(direct_keys[k] >= n for k, n in fsa_keys.items())

    def test_count_monotone_in_window(self):
        frames = scene(frame_count=30, points=200)
        counts = []
        for window in (4, 8, 12, 16, 20, 24, 28):
            division = division_preset("division3", window=window)
            counts.append(aggregate_fsa(frames, 29, division).count)
        assert counts == sorted(counts)

    def test_geometry_independent_of_group_order(self):
        frames = scene(classes={1: 0.3, 9: 0.3, 13: 0.2, 15: 0.2})
        g1 = ClassGroup(frozenset({1}), 2)
        g2 = ClassGroup(frozenset({9, 13}), 3)
        g3 = ClassGroup(frozenset({15}), INFINITE_STEP)
        fwd = aggregate_fsa(frames, 6, GroupDivision((g1, g2, g3), window=5))
        rev = aggregate_fsa(frames, 6, GroupDivision((g3, g2, g1), window=5))
        assert np.array_equal(
            sort_rows(agg_rows(fwd)), sort_rows(agg_rows(rev))
        )

    def test_zero_rate_corruption_changes_nothing(self):
        frames = scene()
        division = division_preset("division1", window=6)
        noisy = [corrupt_labels(f, 0.0, seed=3) for f in frames]
        a = agg_rows(aggregate_fsa(frames, 7, division))
        b = agg_rows(aggregate_fsa(noisy, 7, division))
        assert np.array_equal(a, b)

    def test_finite_default_step_samples_leftover_classes(self):
        frames = scene(classes={1: 0.5, 9: 0.5})
        division = GroupDivision(
            (ClassGroup(frozenset({1}), INFINITE_STEP),),
            window=4,
            default_step=2,
        )
        out = aggregate_fsa(frames, 6, division)
        past = out.source_frame != 6
        assert set(np.unique(out.labeled.semantic[past])) == {9}
        assert sorted(set(out.source_frame[past].tolist())) == [2, 4]

    def test_rows_come_present_first_then_by_ascending_offset(self):
        frames = scene(frame_count=10, points=300)
        division = GroupDivision(
            (
                ClassGroup(frozenset({1}), 2, DistanceSplit(threshold_m=12.0)),
                ClassGroup(frozenset({9}), 3),
            ),
            window=8,
        )
        out = aggregate_fsa(frames, 9, division)
        # offsets 2, 4, 8 (group 1, near points only at 4 and 8) and 3, 6
        blocks = out.source_frame[np.sort(np.unique(out.source_frame, return_index=True)[1])]
        assert blocks.tolist() == [9, 7, 6, 5, 3, 1]
        assert np.all(np.diff(out.source_frame) <= 0)
        present = frames[9]
        for src in (frames[i] for i in blocks):
            offset = 9 - src.index
            semantic = src.labeled.semantic
            near = np.linalg.norm(src.labeled.cloud.xyz, axis=1) < 12.0
            keep = (semantic == 1) & (offset % np.where(near, 4, 2) == 0)
            keep |= (semantic == 9) & (offset % 3 == 0)
            moved = relative_pose(present.pose, src.pose).apply(src.labeled.cloud.xyz[keep])
            if offset == 0:
                keep[:], moved = True, src.labeled.cloud.xyz
            rows = out.source_frame == src.index
            assert np.array_equal(out.labeled.cloud.xyz[rows], moved)
            assert np.array_equal(out.labeled.cloud.intensity[rows], src.labeled.cloud.intensity[keep])
            assert np.array_equal(out.labeled.semantic[rows], semantic[keep])
            assert np.array_equal(out.labeled.instance[rows], src.labeled.instance[keep])

    def test_unmapped_without_default_group_is_an_error(self):
        frames = scene()
        division = GroupDivision(
            (ClassGroup(frozenset({1}), 2),), default_step=None
        )
        with pytest.raises(ConfigurationError, match=r"\b9\b"):
            aggregate_fsa(frames, 5, division)
        # The check covers every sweep in the window, sampled or not: 5 is
        # the present sweep, 4 sits at offset 1, which step 2 never samples.
        division = GroupDivision(
            (ClassGroup(frozenset({1, 9, 13}), 2),), window=4, default_step=None
        )
        for index in (5, 4):
            marked = [relabeled(f, 0, 15) if f.index == index else f for f in frames]
            with pytest.raises(ConfigurationError, match=r"\b15\b"):
                aggregate_fsa(marked, 5, division)
        # frame 0 lies outside the window [1, 5]
        marked = [relabeled(f, 0, 15) if f.index == 0 else f for f in frames]
        assert aggregate_fsa(marked, 5, division).count == aggregate_fsa(frames, 5, division).count
        # so a frame missing from the window is an error, sampled or not:
        # step 2 reads frames 5 and 3 at t = 7, but 6 and 4 are checked too
        gappy = [f for f in frames if f.index in (3, 5, 7)]
        with pytest.raises(InvalidInputError, match="frame 6 is required"):
            aggregate_fsa(gappy, 7, division)
        lenient = dataclasses.replace(division, default_step=INFINITE_STEP)
        assert aggregate_fsa(gappy, 7, lenient).count == 3 * 300

    def test_ids_outside_the_label_field_take_the_default_step(self):
        frames = scene()
        # -65529 would index class 9's slot through a wrapping lookup, 65545
        # would reach class 9 by masking to 16 bits
        odd = {6: -65529, 5: 65545}
        marked = [relabeled(f, 0, odd[f.index]) if f.index in odd else f for f in frames]
        division = GroupDivision(
            (ClassGroup(frozenset({1, 9, 13}), INFINITE_STEP),), window=4, default_step=1
        )
        out = aggregate_fsa(marked, 7, division)
        assert sorted(out.labeled.semantic[out.source_step == 1].tolist()) == [-65529, 65545]
        strict = dataclasses.replace(division, default_step=None)
        for index, class_id in odd.items():
            marked = [relabeled(f, 0, class_id) if f.index == index else f for f in frames]
            with pytest.raises(ConfigurationError, match=rf"\[{class_id}\]"):
                aggregate_fsa(marked, 7, strict)

    def test_rerun_is_bit_identical(self):
        frames = scene()
        division = division_preset("division2", window=6)
        a = aggregate_fsa(frames, 7, division)
        b = aggregate_fsa(frames, 7, division)
        assert np.array_equal(a.labeled.cloud.xyz, b.labeled.cloud.xyz)
        assert np.array_equal(a.source_step, b.source_step)


class TestAssembly:
    """Rows are written straight into one output; a per-part concatenation
    of independently picked rows is the reference."""

    @staticmethod
    def concatenated(frames, t, window, groups, default_step, tag_dtype=np.int32):
        by_index = {f.index: f for f in frames}
        step_of = {c: (g.step, g.near_step(), g.distance_split) for g in groups for c in g.classes}
        fallback = (default_step, default_step, None)
        parts = []
        for offset in range(0, window + 1):
            frame = by_index.get(t - offset)
            if frame is None:
                continue
            xyz, labeled = frame.labeled.cloud.xyz, frame.labeled
            if offset == 0:
                parts.append((frame, np.ones(frame.count, bool), xyz, np.zeros(frame.count, tag_dtype)))
                continue
            steps = np.array([
                near if split is not None and np.linalg.norm(point) < split.threshold_m else far
                for point, c in zip(xyz, labeled.semantic.tolist())
                for far, near, split in [step_of.get(c, fallback)]
            ], dtype=np.float64).reshape(-1)
            keep = np.isfinite(steps) & (offset % np.where(np.isfinite(steps), steps, 1) == 0)
            if keep.any():
                pose = relative_pose(by_index[t].pose, frame.pose)
                parts.append((frame, keep, pose.apply(xyz[keep]), steps[keep].astype(tag_dtype)))
        return {
            "xyz": np.concatenate([moved for _, _, moved, _ in parts]),
            "intensity": np.concatenate([f.labeled.cloud.intensity[k] for f, k, _, _ in parts]),
            "semantic": np.concatenate([f.labeled.semantic[k] for f, k, _, _ in parts]),
            "instance": np.concatenate([f.labeled.instance[k] for f, k, _, _ in parts]),
            "source_frame": np.concatenate([np.full(int(k.sum()), f.index) for f, k, _, _ in parts]),
            "source_step": np.concatenate([tags for _, _, _, tags in parts]),
        }

    @staticmethod
    def columns(agg):
        return {
            "xyz": agg.labeled.cloud.xyz, "intensity": agg.labeled.cloud.intensity,
            "semantic": agg.labeled.semantic, "instance": agg.labeled.instance,
            "source_frame": agg.source_frame, "source_step": agg.source_step,
        }

    def assert_assembled(self, frames, t, division):
        got = self.columns(aggregate_fsa(frames, t, division))
        want = self.concatenated(frames, t, division.window, division.groups, division.default_step)
        for name, column in got.items():
            assert column.dtype == want[name].dtype, name
            assert not column.flags.writeable, name
            assert np.array_equal(column, want[name]), name

    def test_walked_frame_that_keeps_no_rows(self):
        # offset 2 is walked for class 1, but frame 5 holds no class-1 point
        frames = scene(frame_count=8, classes={1: 0.3, 9: 0.4, 13: 0.3})
        frames[5] = relabeled(frames[5], slice(None), 9)
        division = GroupDivision((ClassGroup(frozenset({1}), 2),), window=4)
        assert 5 not in aggregate_fsa(frames, 7, division).source_frame
        self.assert_assembled(frames, 7, division)

    def test_frame_kept_whole(self):
        # at offset 4 every step (2, 4 near and the default 4) divides it
        frames = scene(frame_count=8)
        division = GroupDivision((ClassGroup(frozenset({1}), 2, DistanceSplit(12.0)),),
                                 window=4, default_step=4)
        out = aggregate_fsa(frames, 7, division)
        assert (out.source_frame == 3).sum() == frames[3].count
        self.assert_assembled(frames, 7, division)

    def test_zero_point_present_frame(self):
        frames = scene(frame_count=6)
        empty = LabeledCloud(PointCloud(np.zeros((0, 3)), np.zeros(0)),
                             np.zeros(0, np.int64), np.zeros(0, np.int64))
        frames[5] = dataclasses.replace(frames[5], labeled=empty)
        division = GroupDivision((ClassGroup(frozenset({1, 9}), 1),), window=3, default_step=2)
        self.assert_assembled(frames, 5, division)
        direct = aggregate_direct(frames, 5, 3)
        assert direct.count == 3 * frames[0].count and direct.source_frame[0] == 4

    def test_strict_division(self):
        frames = scene(frame_count=10)
        division = GroupDivision(
            (ClassGroup(frozenset({1}), 2, DistanceSplit(12.0)), ClassGroup(frozenset({9}), 3),
             ClassGroup(frozenset({13}), INFINITE_STEP)),
            window=8, default_step=None,
        )
        self.assert_assembled(frames, 9, division)

    def test_uniform_steps(self):
        frames = scene(frame_count=8)
        for step in (1, 2):
            division = GroupDivision((ClassGroup(frozenset({1}), step),), window=6, default_step=step)
            self.assert_assembled(frames, 7, division)


class TestOutputsFromCheckedFrames:
    """Aggregation builds its result without the container checks, because
    every row was checked when its frame was built; the checked constructors
    find nothing to reject in it."""

    @pytest.fixture(scope="class")
    def frames(self):
        return scene(frame_count=10, points=400, classes={c: 1 / 19 for c in range(1, 20)})

    @pytest.mark.parametrize("strategy", ["direct", "stepped", *DIVISION_PRESET_NAMES])
    def test_result_is_read_only_and_passes_the_checked_constructors(self, frames, strategy):
        if strategy == "direct":
            agg = aggregate_direct(frames, 9, 8)
        elif strategy == "stepped":
            agg = aggregate_stepped(frames, 9, 8, 2)
        else:
            agg = aggregate_fsa(frames, 9, division_preset(strategy, window=8))
        assert agg.count > frames[9].count
        assert agg.labeled.cloud.xyz.T.flags.c_contiguous  # column-stored, like its frames
        cloud = PointCloud(agg.labeled.cloud.xyz, agg.labeled.cloud.intensity)
        labeled = LabeledCloud(cloud, agg.labeled.semantic, agg.labeled.instance)
        checked = AggregatedCloud(labeled, agg.source_frame, agg.source_step, agg.reference_frame)
        got, want = TestAssembly.columns(agg), TestAssembly.columns(checked)
        for name, column in got.items():
            assert not column.flags.writeable, name
            assert column.dtype == want[name].dtype and column.shape == want[name].shape, name
            assert column.tobytes() == want[name].tobytes(), name
        assert checked.reference_frame == agg.reference_frame == 9

    @pytest.mark.parametrize("strategy", ["direct", "stepped", "division3", "division5"])
    def test_columns_are_contiguous_read_only_and_save_alone(self, frames, strategy):
        # the columns are views of one block; each still acts as an array of its own
        aggregate, _ = strategy_and_division(strategy, window=8)
        columns = TestAssembly.columns(aggregate(frames, 9))
        xyz = columns["xyz"]
        assert xyz.T.flags.c_contiguous and xyz.dtype == np.float64 and not xyz.flags.writeable
        for name, column in columns.items():
            if name != "xyz":
                assert column.ndim == 1 and column.flags.c_contiguous, name
                want = {"intensity": np.float64, "source_step": np.int32}.get(name, np.int64)
                assert column.dtype == want, name
                assert not column.flags.writeable, name
            saved, fresh = io.BytesIO(), io.BytesIO()
            np.save(saved, column)
            np.save(fresh, column.copy(order="K"))
            assert saved.getvalue() == fresh.getvalue(), name

    def test_non_finite_coordinate_is_rejected_when_the_frame_is_built(self, frames):
        xyz = frames[3].labeled.cloud.xyz.copy()
        xyz[7, 1] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            PointCloud(xyz, frames[3].labeled.cloud.intensity)


class TestStepTags:
    """Step tags are int32 wherever a cloud is made, and no tag wraps."""

    @pytest.fixture(scope="class")
    def frames(self):
        return scene(frame_count=10, points=400, classes={c: 1 / 19 for c in range(1, 20)})

    @staticmethod
    def labeled(count=3):
        return LabeledCloud(PointCloud(np.zeros((count, 3)), np.zeros(count)),
                            np.zeros(count, np.int64), np.zeros(count, np.int64))

    @pytest.mark.parametrize("strategy", ["direct", "stepped", *DIVISION_PRESET_NAMES])
    def test_every_strategy_tags_in_int32_the_int64_steps(self, frames, strategy):
        aggregate, division = strategy_and_division(strategy, window=8)
        got = aggregate(frames, 9).source_step
        want = TestAssembly.concatenated(frames, 9, 8, division.groups, division.default_step, np.int64)
        assert got.dtype == np.int32 and want["source_step"].dtype == np.int64
        assert np.array_equal(got, want["source_step"]) and (got > 0).any()

    @pytest.mark.parametrize("given", [np.array([0, 4, 2**31 - 1]), np.array([0, 4, 7], np.uint16),
                                       np.array([-2**31, 0, 1], np.int64), np.array([False, True, True])],
                             ids=["int64", "uint16", "int64-low", "bool"])
    def test_user_tags_come_out_int32(self, given):
        agg = AggregatedCloud(self.labeled(), [5, 4, 3], given, 5)
        assert agg.source_step.dtype == np.int32 and not agg.source_step.flags.writeable
        assert agg.source_step.tolist() == given.astype(np.int64).tolist()

    @pytest.mark.parametrize("value", [2**40, 2**31, -2**31 - 1])
    def test_user_tags_outside_int32_are_rejected_not_wrapped(self, value):
        with pytest.raises(InvalidInputError, match=f"source_step {value} lies outside int32"):
            AggregatedCloud(self.labeled(), [5, 4, 3], np.array([0, value, 1]), 5)

    def test_a_step_past_int32_neither_wraps_nor_warns(self, frames):
        division = GroupDivision((ClassGroup(frozenset({1}), 2**31, DistanceSplit(12.0)),
                                  ClassGroup(frozenset({9}), 2)), window=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            agg = aggregate_fsa(frames, 9, division)
        assert sorted(set(agg.source_step.tolist())) == [0, 2]
        never = GroupDivision((ClassGroup(frozenset({1}), INFINITE_STEP), ClassGroup(frozenset({9}), 2)), window=8)
        assert agg.count == aggregate_fsa(frames, 9, never).count

    def test_a_step_past_int32_that_samples_a_frame_is_an_error(self, frames):
        # a kept row would need the tag 2**31, which int32 cannot hold
        far = [frames[0], dataclasses.replace(frames[1], index=2**31)]
        with pytest.raises(InvalidInputError, match=f"step {2**31} samples frame 0"):
            aggregate_stepped(far, 2**31, 2**31, 2**31)
        near = [frames[0], dataclasses.replace(frames[1], index=2**30)]
        assert aggregate_stepped(near, 2**30, 2**30, 2**30).source_step[-1] == 2**30


def strategy_and_division(strategy: str, window: int):
    """The aggregation call a strategy names, and a division the references
    read it as (direct and stepped are one all-class group)."""
    every_class = frozenset(range(1, 20))
    if strategy == "direct":
        return (lambda frames, t: aggregate_direct(frames, t, window),
                GroupDivision((ClassGroup(every_class, 1),), window=window, default_step=1))
    if strategy == "stepped":
        return (lambda frames, t: aggregate_stepped(frames, t, window, 2),
                GroupDivision((ClassGroup(every_class, 2),), window=window, default_step=2))
    division = division_preset(strategy, window=window)
    return (lambda frames, t: aggregate_fsa(frames, t, division)), division


class TestBlockEdges:
    """Frames larger than one Pose.apply block, so moved parts cross block
    edges at places that differ from the oracle's whole-frame transforms."""

    @pytest.fixture(scope="class")
    def frames(self):
        return scene(frame_count=9, points=40000, classes={c: 1 / 19 for c in range(1, 20)})

    @staticmethod
    def serial(frames, t, division):
        """Columns assembled one part after another on one thread, each kept
        part moved by the unblocked per-column formula."""
        by_index = {f.index: f for f in frames}
        lookup = {c: (g.step, g.near_step(), g.distance_split.threshold_m if g.distance_split else 0.0)
                  for g in division.groups for c in g.classes}
        fallback = (division.default_step, division.default_step, 0.0)
        parts = []
        for offset in range(min(division.window, t - min(by_index)) + 1):
            frame = by_index[t - offset]
            labeled, xyz = frame.labeled, frame.labeled.cloud.xyz
            if offset == 0:
                keep, steps, moved = np.ones(frame.count, bool), np.zeros(frame.count), xyz
            else:
                far, near, split = np.array([lookup.get(c, fallback) for c in labeled.semantic.tolist()]).T
                steps = np.where(np.linalg.norm(xyz, axis=1) < split, near, far)
                keep = np.isfinite(steps) & (offset % np.where(np.isfinite(steps), steps, 1) == 0)
                pose = relative_pose(by_index[t].pose, frame.pose)
                rot, trans, kept = pose.rotation, pose.translation, xyz[keep]
                moved = np.stack([rot[a, 0] * kept[:, 0] + rot[a, 1] * kept[:, 1] + rot[a, 2] * kept[:, 2]
                                  + trans[a] for a in range(3)], axis=1)
            parts.append({
                "xyz": moved, "intensity": labeled.cloud.intensity[keep],
                "semantic": labeled.semantic[keep], "instance": labeled.instance[keep],
                "source_frame": np.full(int(keep.sum()), frame.index),
                "source_step": steps[keep].astype(np.int32),
            })
        return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}

    @pytest.mark.parametrize("strategy", ["direct", "stepped", *DIVISION_PRESET_NAMES])
    def test_bit_identical_to_the_oracle_and_a_serial_reference(self, frames, strategy):
        aggregate, division = strategy_and_division(strategy, window=8)
        agg = aggregate(frames, 8)
        assert frames[0].count > _APPLY_BLOCK
        assert np.bincount(agg.source_frame)[:8].max() > _APPLY_BLOCK  # a past part spans blocks
        oracle = sort_rows(fsa_oracle_rows(frames, 8, division))
        assert sort_rows(agg_rows(agg)).tobytes() == oracle.tobytes()
        got, want = TestAssembly.columns(agg), self.serial(frames, 8, division)
        for name, column in got.items():
            assert column.dtype == want[name].dtype and column.shape == want[name].shape, name
            assert column.tobytes() == want[name].tobytes(), name


class TestHelperThread:
    """Pass 1 walks on the calling thread, then it and one helper thread per
    call each select every other walked frame; pass 2 moves xyz on the
    calling thread while the helper writes the other columns."""

    STRICT = GroupDivision((ClassGroup(frozenset({1, 9, 13}), 2),), window=6, default_step=None)

    @pytest.mark.parametrize("marked, first", [((6, 5), 6), ((5, 4), 5), ((3, 6), 6), ((1, 7), 7)])
    def test_the_first_unassigned_frame_in_walk_order_is_reported(self, marked, first):
        # at t = 7 the walk is 7, 6, ..., 1: this thread selects 7, 5, 3, 1
        # and the helper 6, 4, 2, so each pair puts one frame on each thread
        frames = [relabeled(f, 0, 20 + f.index) if f.index in marked else f for f in scene()]
        before = threading.active_count()
        for _ in range(20):
            with pytest.raises(ConfigurationError, match=rf"classes \[{20 + first}\] in frame {first} "):
                aggregate_fsa(frames, 7, self.STRICT)
        assert threading.active_count() == before

    @pytest.mark.parametrize("unassigned", [7, 6])
    def test_a_missing_frame_is_reported_before_an_earlier_unassigned_class(self, unassigned):
        # the walk is materialised before any frame is selected, so frame 3's
        # absence is reported although the unassigned class comes first
        frames = [relabeled(f, 0, 15) if f.index == unassigned else f for f in scene() if f.index != 3]
        for _ in range(20):
            with pytest.raises(InvalidInputError, match="frame 3 is required"):
                aggregate_fsa(frames, 7, self.STRICT)

    @pytest.mark.parametrize("strategy", ["direct", "stepped", "division5"])
    def test_every_pose_apply_runs_on_the_calling_thread(self, monkeypatch, strategy):
        frames = scene(frame_count=8, classes={c: 1 / 19 for c in range(1, 20)})
        aggregate, _ = strategy_and_division(strategy, window=6)
        want = TestAssembly.columns(aggregate(frames, 7))
        callers, original = [], Pose.apply

        def recording(pose, xyz, out=None):
            callers.append(threading.get_ident())
            return original(pose, xyz, out=out)

        before = threading.active_count()
        monkeypatch.setattr(Pose, "apply", recording)
        got = TestAssembly.columns(aggregate(frames, 7))
        assert callers and set(callers) == {threading.get_ident()}
        assert threading.active_count() == before
        for name, column in got.items():
            assert column.tobytes() == want[name].tobytes(), name

    def test_a_failing_column_copy_is_raised_after_the_helper_ends(self, monkeypatch):
        frames = scene(frame_count=8)
        original = aggregation._fill_columns

        def failing(parts, outs):
            original(parts[:1], outs)
            raise MemoryError("column copy failed")

        before = threading.active_count()
        monkeypatch.setattr(aggregation, "_fill_columns", failing)
        with pytest.raises(MemoryError, match="column copy failed"):
            aggregate_direct(frames, 7, 6)
        assert threading.active_count() == before


class TestDivisions:
    def test_division1_steps(self):
        division = division_preset("division1")
        assert tuple(g.step for g in division.groups) == (INFINITE_STEP, 4.0, 2.0)
        assert division.window == 16

    def test_presets_partition_all_19_classes(self):
        for name in DIVISION_PRESET_NAMES:
            division = division_preset(name)
            seen = sorted(c for g in division.groups for c in g.classes)
            assert seen == sorted(DEFAULT_CLASS_SCORES)

    def test_division3_promotes_large_ground_classes(self):
        d1 = division_preset("division1")
        d3 = division_preset("division3")
        assert d3.groups[1].classes - d1.groups[1].classes == {10, 12, 17}
        assert d1.groups[0].classes == d3.groups[0].classes

    def test_division4_adds_step8_group(self):
        division = division_preset("division4")
        assert tuple(g.step for g in division.groups) == (INFINITE_STEP, 4.0, 2.0, 8.0)
        assert division.groups[3].classes == {10, 11, 12, 17}

    def test_division5_near_step_doubles_base(self):
        division = division_preset("division5")
        by_step = {g.step: g for g in division.groups}
        assert by_step[2.0].distance_split.threshold_m == 30.0
        assert by_step[2.0].near_step() == 4.0
        assert by_step[INFINITE_STEP].distance_split is None

    def test_each_preset_is_pinned(self):
        # every group of every shipped preset, in order: classes, step and split
        easy = {1, 9, 13, 15}
        hard = {2, 4, 5, 6, 7, 8, 14, 16, 18, 19}
        split = DistanceSplit(threshold_m=30.0, near_step_multiplier=2)
        pinned = {
            "division1": [(easy, INFINITE_STEP, None), ({3, 11}, 4, None), (hard | {10, 12, 17}, 2, None)],
            "division2": [({1, 3, 9, 11, 13, 15}, INFINITE_STEP, None), ({4, 6, 7, 14, 16, 17}, 4, None),
                          ({2, 5, 8, 10, 12, 18, 19}, 2, None)],
            "division3": [(easy, INFINITE_STEP, None), ({3, 10, 11, 12, 17}, 4, None), (hard, 2, None)],
            "division4": [(easy, INFINITE_STEP, None), ({3}, 4, None), (hard, 2, None),
                          ({10, 11, 12, 17}, 8, None)],
            "division5": [(easy, INFINITE_STEP, None), ({3, 10, 11, 12, 17}, 4, split), (hard, 2, split)],
        }
        assert tuple(sorted(pinned)) == DIVISION_PRESET_NAMES
        for name, groups in pinned.items():
            want = tuple(ClassGroup(frozenset(classes), step, near) for classes, step, near in groups)
            assert division_preset(name) == GroupDivision(want, window=16, default_step=INFINITE_STEP, name=name)
            assert division_preset(name, window=5) == GroupDivision(want, window=5, name=name)

    def test_unknown_preset_names_the_valid_ones(self):
        with pytest.raises(ConfigurationError, match="division1"):
            division_preset("division99")

    def test_overlapping_groups_are_rejected(self):
        with pytest.raises(ConfigurationError, match="class 1"):
            GroupDivision(
                (ClassGroup(frozenset({1, 2}), 2), ClassGroup(frozenset({1}), 4))
            )

    def test_bad_steps_are_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassGroup(frozenset({1}), 0)
        with pytest.raises(ConfigurationError):
            ClassGroup(frozenset({1}), 2.5)
        with pytest.raises(ConfigurationError):
            GroupDivision((ClassGroup(frozenset({1}), 2),), window=0)

    def test_non_finite_windows_and_multipliers_are_rejected(self):
        division = GroupDivision((ClassGroup(frozenset({1}), 2),))
        for bad in (math.inf, math.nan):  # a division file's message for the same window
            with pytest.raises(ConfigurationError, match=f"^window must be an integer, got {bad}$"):
                GroupDivision(division.groups, window=bad)
            with pytest.raises(ConfigurationError, match=f"^window must be an integer, got {bad}$"):
                division.with_window(bad)
            with pytest.raises(ConfigurationError, match="near_step_multiplier"):
                DistanceSplit(threshold_m=10.0, near_step_multiplier=bad)
        assert division.with_window(5.0).window == 5

    def test_class_ids_outside_the_label_field_are_rejected(self):
        for bad in (-1, 65536):
            with pytest.raises(ConfigurationError, match="label field"):
                ClassGroup(frozenset({1, bad}), 2)
        assert ClassGroup(frozenset({0, 65535}), 2).classes == {0, 65535}

    def test_class_ids_follow_the_integer_rule(self):
        # an id is never rounded: 1.5 is not class 1, and True is not class 1
        with pytest.raises(ConfigurationError, match="classes must be integers, got 1.5"):
            ClassGroup({1.5, 2}, 2)
        with pytest.raises(ConfigurationError, match="classes must be integers, got True"):
            ClassGroup({True}, 2)

    def test_absent_division_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "rig.yaml"
        path.write_text("groups:\n  - classes: [1]\n    step: 2\n")
        assert load_division(path) == GroupDivision((ClassGroup(frozenset({1}), 2),), name="rig")

    def test_division_yaml_round_trip(self, tmp_path):
        text = """
name: rig
window: 12
default_step: inf
groups:
  - classes: [1, 9]
    step: inf
  - classes: [13]
    step: 4
    distance_split: {threshold_m: 25.0, near_step_multiplier: 2}
"""
        path = tmp_path / "div.yaml"
        path.write_text(text)
        division = load_division(path)
        assert division.name == "rig"
        assert division.window == 12
        assert division.groups[0].step == INFINITE_STEP
        assert division.groups[1].distance_split.threshold_m == 25.0

    def test_resolve_by_name_and_path(self, tmp_path):
        assert resolve_division("division1").name == "division1"
        path = tmp_path / "d.yaml"
        path.write_text("groups:\n  - classes: [1]\n    step: 2\n")
        assert resolve_division(str(path), window=7).window == 7
        with pytest.raises(ConfigurationError):
            resolve_division("nope")

    def test_with_window_replaces_only_window(self):
        division = division_preset("division1").with_window(24)
        assert division.window == 24
        assert division.name == "division1"
