"""Motion-state switching: track extraction, both switch directions, rewrite."""

import numpy as np
import pytest

from lidarseq.aggregation import AggregatedCloud, aggregate_direct
from lidarseq.augment import (
    COVERAGE_RADIUS,
    DEFAULT_CLASS_PAIRS,
    AnchorSet,
    InstanceTrack,
    apply_switch,
    classify_motion,
    extract_track,
    moving_to_static,
    ring_anchors,
    static_to_moving,
)
from lidarseq.augment import DEFAULT_MOTION_THRESHOLD, _anchor_coverage, _in_anchor_box, _static_to_moving, switch_sequence
from lidarseq.errors import ConfigurationError, InvalidInputError, NotAugmentableError
from lidarseq.geometry import LabeledCloud, PointCloud
from lidarseq.sequence import EgoSpec, InstanceSpec, SyntheticSceneSpec, generate_synthetic

EMPTY_SCENE = np.zeros((0, 3))


def make_track(rng, centroids, points=30, spread=(2.0, 0.8, 0.5), class_id=10):
    """Same local shape re-centered at each listed centroid, newest first."""
    base = rng.uniform(-0.5, 0.5, size=(points, 3)) * np.asarray(spread)
    base -= base.mean(axis=0)
    frames = tuple(range(len(centroids) - 1, -1, -1))
    parts = tuple(
        PointCloud(base + np.asarray(c, dtype=np.float64), rng.uniform(0.1, 0.9, size=points))
        for c in centroids
    )
    return InstanceTrack(7, class_id, frames, parts)


def pairwise_matrices(track):
    return [
        np.linalg.norm(p.xyz[:, None, :] - p.xyz[None, :, :], axis=2) for p in track.parts
    ]


def make_scene(velocity, class_id, seed=0, frame_count=6):
    spec = SyntheticSceneSpec(
        frame_count=frame_count,
        points_per_frame=600,
        classes={40: 0.7, class_id: 0.3},
        instances=(
            InstanceSpec(
                class_id=class_id,
                points=120,
                center=(8.0, 2.0, 0.8),
                velocity=velocity,
                instance_id=5,
            ),
        ),
        seed=seed,
        extent=30.0,
    )
    frames = generate_synthetic(spec)
    return aggregate_direct(frames, t=frame_count - 1, window=frame_count - 1)


class TestInstanceTrack:
    def test_centroids_are_part_means(self):
        track = make_track(np.random.default_rng(0), [(0, 0, 0), (1, 2, 3)])
        for part, centroid in zip(track.parts, track.centroids):
            assert np.abs(centroid - part.xyz.mean(axis=0)).max() < 1e-12

    def test_frames_must_descend(self):
        part = PointCloud(np.zeros((2, 3)), np.full(2, 0.5))
        with pytest.raises(InvalidInputError):
            InstanceTrack(1, 10, (0, 1), (part, part))

    def test_parts_must_parallel_frames(self):
        part = PointCloud(np.zeros((2, 3)), np.full(2, 0.5))
        with pytest.raises(InvalidInputError):
            InstanceTrack(1, 10, (1, 0), (part,))


class TestExtractTrack:
    def test_one_part_per_observed_frame(self):
        agg = make_scene(velocity=(2.0, 0.0, 0.0), class_id=252)
        track = extract_track(agg, 5)
        assert track.part_count == 6
        assert track.frames == (5, 4, 3, 2, 1, 0)
        assert track.class_id == 252
        # parts are exactly the masked rows, in cloud order
        for frame, part in zip(track.frames, track.parts):
            pick = (agg.labeled.instance == 5) & (agg.source_frame == frame)
            assert np.array_equal(part.xyz, agg.labeled.cloud.xyz[pick])

    def test_absent_instance_is_not_augmentable(self):
        agg = make_scene(velocity=(0.0, 0.0, 0.0), class_id=10)
        with pytest.raises(NotAugmentableError):
            extract_track(agg, 999)

    def test_single_frame_instance_is_not_augmentable(self):
        spec = SyntheticSceneSpec(
            frame_count=3,
            points_per_frame=200,
            classes={40: 0.6, 10: 0.4},
            instances=(InstanceSpec(class_id=10, points=50, center=(6, 0, 1), instance_id=2),),
        )
        frames = generate_synthetic(spec)
        agg = aggregate_direct(frames, t=2, window=0)
        with pytest.raises(NotAugmentableError):
            extract_track(agg, 2)

    def test_constant_velocity_gives_equal_centroid_offsets(self):
        agg = make_scene(velocity=(1.5, -0.5, 0.0), class_id=252)
        track = extract_track(agg, 5)
        offsets = np.diff(track.centroids, axis=0)
        assert np.abs(offsets - offsets[0]).max() < 1e-9
        # ego is still, so present coordinates are world coordinates and the
        # newest-minus-older offset is one frame of motion at 10 Hz
        assert np.abs(-offsets[0] - np.array([0.15, -0.05, 0.0])).max() < 1e-9

    def test_moving_ego_keeps_offsets_equal(self):
        spec = SyntheticSceneSpec(
            frame_count=5,
            points_per_frame=400,
            classes={40: 0.6, 252: 0.4},
            instances=(
                InstanceSpec(
                    class_id=252, points=100, center=(10, 0, 1),
                    velocity=(1.0, 1.0, 0.0), instance_id=3,
                ),
            ),
            ego=EgoSpec(velocity=(2.0, 0.0, 0.0), yaw_rate_deg=5.0),
        )
        frames = generate_synthetic(spec)
        track = extract_track(aggregate_direct(frames, t=4, window=4), 3)
        offsets = np.diff(track.centroids, axis=0)
        assert np.abs(offsets - offsets[0]).max() < 1e-9


class TestClassifyMotion:
    def test_coincident_centroids_are_static(self):
        track = make_track(np.random.default_rng(1), [(1, 1, 0)] * 3)
        assert classify_motion(track) == "static"

    def test_metre_spacing_is_moving_at_low_threshold(self):
        track = make_track(np.random.default_rng(2), [(0, 0, 0), (1, 0, 0)])
        assert classify_motion(track, threshold=0.1) == "moving"
        assert classify_motion(track, threshold=2.0) == "static"

    def test_generator_kinematics_reproduced(self):
        rng = np.random.default_rng(3)
        for case in range(12):
            moving = case % 2 == 0
            speed = rng.uniform(1.0, 3.0) if moving else 0.0
            agg = make_scene(velocity=(speed, 0.0, 0.0), class_id=252 if moving else 10, seed=case)
            track = extract_track(agg, 5)
            assert classify_motion(track) == ("moving" if moving else "static")


class TestMovingToStatic:
    def test_collapses_onto_the_newest_centroid(self):
        track = make_track(np.random.default_rng(4), [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        still = moving_to_static(track)
        assert np.abs(still.centroids - still.centroids[0]).max() < 1e-9
        assert np.abs(still.centroids[0] - track.centroids[0]).max() < 1e-9

    def test_counts_and_shape_preserved(self):
        track = make_track(np.random.default_rng(5), [(0, 0, 0), (1.5, 1.0, 0)])
        still = moving_to_static(track)
        assert [p.count for p in still.parts] == [p.count for p in track.parts]
        for before, after in zip(pairwise_matrices(track), pairwise_matrices(still)):
            assert np.abs(before - after).max() < 1e-9

    def test_static_input_is_rejected(self):
        track = make_track(np.random.default_rng(6), [(0, 0, 0)] * 3)
        with pytest.raises(NotAugmentableError):
            moving_to_static(track)

    def test_random_tracks_end_up_static(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            centroids = np.cumsum(rng.uniform(0.5, 2.0, size=(n, 3)), axis=0)
            still = moving_to_static(make_track(rng, centroids))
            spread = still.centroids[:, None, :] - still.centroids[None, :, :]
            assert np.sqrt((spread**2).sum(axis=2)).max() < 1e-9


class TestStaticToMoving:
    def anchors_at(self, *positions):
        return AnchorSet(np.array(positions, dtype=np.float64))

    def test_constant_offset_from_the_chosen_anchor(self):
        track = make_track(np.random.default_rng(8), [(5, 5, 1)] * 4)
        anchors = self.anchors_at((0.0, 0.0, 1.0))
        moved = static_to_moving(track, EMPTY_SCENE, anchors, seed=1)
        # newest part sits on the anchor, older parts trail at constant spacing
        assert np.abs(moved.centroids[0] - anchors.positions[0]).max() < 1e-9
        offsets = np.diff(moved.centroids, axis=0)
        assert np.abs(offsets - offsets[0]).max() < 1e-9
        speed = float(np.linalg.norm(offsets[0]))
        assert 0.2 <= speed <= 1.0

    def test_motion_runs_along_the_longer_horizontal_axis(self):
        rng = np.random.default_rng(9)
        long_x = make_track(rng, [(0, 0, 0)] * 3, spread=(3.0, 0.8, 0.5))
        moved = static_to_moving(long_x, EMPTY_SCENE, self.anchors_at((1, 1, 0)), seed=2)
        d = np.diff(moved.centroids, axis=0)[0]
        assert d[1] == 0.0 and d[2] == 0.0 and d[0] != 0.0
        long_y = make_track(rng, [(0, 0, 0)] * 3, spread=(0.8, 3.0, 0.5))
        moved = static_to_moving(long_y, EMPTY_SCENE, self.anchors_at((1, 1, 0)), seed=2)
        d = np.diff(moved.centroids, axis=0)[0]
        assert d[0] == 0.0 and d[2] == 0.0 and d[1] != 0.0

    def test_quietest_anchor_wins(self):
        rng = np.random.default_rng(11)
        track = make_track(rng, [(0, 0, 0)] * 3)
        crowded = np.array([10.0, 0.0, 0.0])
        scene = crowded + rng.uniform(-1, 1, size=(100, 3)) * np.array([1.0, 1.0, 0.2])
        anchors = self.anchors_at(tuple(crowded), (-10.0, 0.0, 0.0))
        moved = static_to_moving(track, scene, anchors, seed=4)
        assert np.abs(moved.centroids[0] - anchors.positions[1]).max() < 1e-9

    def test_ties_break_toward_the_lowest_index(self):
        rng = np.random.default_rng(12)
        track = make_track(rng, [(0, 0, 0)] * 2)
        anchors = self.anchors_at((3.0, 0.0, 0.0), (-3.0, 0.0, 0.0))
        moved = static_to_moving(track, EMPTY_SCENE, anchors, seed=5)
        assert np.abs(moved.centroids[0] - anchors.positions[0]).max() < 1e-9

    def test_anchor_matches_a_brute_force_scan(self):
        def brute_force(anchors, xyz):
            r2 = COVERAGE_RADIUS**2
            counts = [int((((xyz[:, 0] - p[0]) ** 2 + (xyz[:, 1] - p[1]) ** 2) <= r2).sum())
                      for p in anchors.positions]
            return counts.index(min(counts))  # the lowest index on ties

        rng = np.random.default_rng(21)
        # widely spaced anchors, each with its own crowd, and points strewn far outside
        spaced = self.anchors_at((0.0, 0.0, 0.0), (500.0, -40.0, 1.0), (-300.0, 250.0, 0.0))
        for trial in range(20):
            crowds = [p + rng.normal(size=(int(rng.integers(0, 40)), 3)) * 1.5
                      for p in spaced.positions]
            far = rng.uniform(-2000, 2000, size=(200, 3))
            xyz = np.vstack(crowds + [far])
            assert np.argmin(_anchor_coverage(spaced, xyz)) == brute_force(spaced, xyz)
        # points exactly on the coverage radius (2 m) count, one ulp beyond do not:
        # anchor 1 holds two of the first, anchor 2 three of the second
        assert COVERAGE_RADIUS == 2.0
        anchors = self.anchors_at((0.0, 0.0, 0.0), (10.0, 0.0, 0.0), (0.0, 10.0, 0.0))
        crowd = np.full((5, 3), 0.5)
        on_circle = np.array([[12.0, 0.0, 5.0], [10.0, -2.0, 0.0]])
        beyond = np.array([[np.nextafter(2.0, 3.0), 10.0, 0.0], [0.0, np.nextafter(12.0, 13.0), 0.0],
                           [-np.nextafter(2.0, 3.0), 10.0, -1.0]])
        xyz = np.vstack([crowd, on_circle, beyond])
        assert brute_force(anchors, xyz) == 2
        assert np.argmin(_anchor_coverage(anchors, xyz)) == 2
        # an empty scene ties every anchor at zero
        assert np.argmin(_anchor_coverage(anchors, EMPTY_SCENE)) == 0

    def test_result_classifies_as_moving(self):
        rng = np.random.default_rng(13)
        for seed in range(20):
            track = make_track(rng, [tuple(rng.uniform(-5, 5, size=3))] * int(rng.integers(2, 6)))
            moved = static_to_moving(track, EMPTY_SCENE, ring_anchors((0, 0, 0)), seed=seed)
            assert classify_motion(moved, threshold=0.1) == "moving"

    def test_rigidity_per_part(self):
        rng = np.random.default_rng(14)
        track = make_track(rng, [(2, 2, 0)] * 4)
        moved = static_to_moving(track, EMPTY_SCENE, ring_anchors((0, 0, 0)), seed=6)
        for before, after in zip(pairwise_matrices(track), pairwise_matrices(moved)):
            assert np.abs(before - after).max() < 1e-9

    def test_identical_seeds_are_bit_identical(self):
        rng = np.random.default_rng(15)
        track = make_track(rng, [(1, 0, 0)] * 3)
        anchors = ring_anchors((0, 0, 0))
        a = static_to_moving(track, EMPTY_SCENE, anchors, seed=9)
        b = static_to_moving(track, EMPTY_SCENE, anchors, seed=9)
        c = static_to_moving(track, EMPTY_SCENE, anchors, seed=10)
        for pa, pb in zip(a.parts, b.parts):
            assert np.array_equal(pa.xyz, pb.xyz)
        assert not all(np.array_equal(pa.xyz, pc.xyz) for pa, pc in zip(a.parts, c.parts))

    def test_round_trip_restores_a_single_centroid(self):
        rng = np.random.default_rng(16)
        track = make_track(rng, [(4, -2, 0.5)] * 4)
        moved = static_to_moving(track, EMPTY_SCENE, ring_anchors((0, 0, 0)), seed=7)
        back = moving_to_static(moved)
        spread = back.centroids[:, None, :] - back.centroids[None, :, :]
        assert np.sqrt((spread**2).sum(axis=2)).max() < 1e-9
        for before, after in zip(pairwise_matrices(track), pairwise_matrices(back)):
            assert np.abs(before - after).max() < 1e-9

    def test_moving_input_is_rejected(self):
        rng = np.random.default_rng(18)
        track = make_track(rng, [(0, 0, 0), (2, 0, 0)])
        with pytest.raises(NotAugmentableError):
            static_to_moving(track, EMPTY_SCENE, ring_anchors((0, 0, 0)))

    def test_negative_seed_is_named(self):
        track = make_track(np.random.default_rng(19), [(5, 5, 1)] * 3)
        with pytest.raises(InvalidInputError, match=r"^seed must be >= 0, got -1$"):
            static_to_moving(track, EMPTY_SCENE, ring_anchors((5, 5, 1)), seed=-1)
        with pytest.raises(InvalidInputError, match=r"^seed must be an integer, got 1.5$"):
            static_to_moving(track, EMPTY_SCENE, ring_anchors((5, 5, 1)), seed=1.5)

    def test_a_scene_cut_to_the_anchors_box_picks_the_same_anchor(self):
        # switch_sequence adds up the counts of each frame, which only the box's points reach
        rng = np.random.default_rng(20)
        track = make_track(rng, [(5, 5, 1)] * 3)
        anchors = ring_anchors((5, 5, 1))
        scene = np.concatenate([rng.uniform(-20, 30, size=(3000, 3)), rng.uniform(6, 9, size=(200, 3))])
        kept = _in_anchor_box(anchors, scene)
        assert 0 < kept.shape[0] < scene.shape[0]
        whole = _anchor_coverage(anchors, scene)
        summed = sum(_anchor_coverage(anchors, chunk) for chunk in np.array_split(scene, [0, 700, 701, 2500]))
        assert whole.dtype == summed.dtype == np.int64 and len(set(whole.tolist())) > 1
        assert _anchor_coverage(anchors, kept).tolist() == summed.tolist() == whole.tolist()
        a = static_to_moving(track, scene, anchors, seed=3)
        for b in (static_to_moving(track, kept, anchors, seed=3),
                  _static_to_moving(track, anchors, lambda: summed, 3, DEFAULT_MOTION_THRESHOLD)):
            for part_a, part_b in zip(a.parts, b.parts):
                assert part_a.xyz.tobytes() == part_b.xyz.tobytes()

    def test_anchor_set_validation(self):
        with pytest.raises(InvalidInputError):
            AnchorSet(np.zeros((0, 3)))
        with pytest.raises(InvalidInputError, match="finite"):
            AnchorSet(np.array([[0.0, np.nan, 0.0]]))


class TestApplySwitch:
    def test_moving_to_static_rewrites_points_and_labels(self):
        agg = make_scene(velocity=(2.0, 0.0, 0.0), class_id=252)
        track = extract_track(agg, 5)
        switched = apply_switch(agg, track, moving_to_static(track))
        assert switched.count == agg.count
        moved_rows = switched.labeled.instance == 5
        assert set(switched.labeled.semantic[moved_rows].tolist()) == {10}
        # the rewritten cloud really holds the collapsed track
        assert classify_motion(extract_track(switched, 5)) == "static"

    def test_static_to_moving_rewrites_labels_forward(self):
        agg = make_scene(velocity=(0.0, 0.0, 0.0), class_id=10)
        track = extract_track(agg, 5)
        moved = static_to_moving(track, agg, ring_anchors(track.centroids[0]), seed=3)
        switched = apply_switch(agg, track, moved)
        rows = switched.labeled.instance == 5
        assert set(switched.labeled.semantic[rows].tolist()) == {252}
        assert classify_motion(extract_track(switched, 5)) == "moving"

    def test_non_track_points_are_bit_identical(self):
        agg = make_scene(velocity=(2.0, 0.0, 0.0), class_id=252)
        track = extract_track(agg, 5)
        switched = apply_switch(agg, track, moving_to_static(track))
        keep = agg.labeled.instance != 5
        assert np.array_equal(switched.labeled.cloud.xyz[keep], agg.labeled.cloud.xyz[keep])
        assert np.array_equal(switched.labeled.semantic[keep], agg.labeled.semantic[keep])
        assert np.array_equal(switched.labeled.cloud.intensity, agg.labeled.cloud.intensity)
        assert np.array_equal(switched.source_frame, agg.source_frame)
        assert np.array_equal(switched.source_step, agg.source_step)

    def test_result_is_read_only_and_the_input_is_untouched(self):
        # built without the container checks: they must find nothing to reject
        agg = make_scene(velocity=(2.0, 0.0, 0.0), class_id=252)
        xyz, semantic = agg.labeled.cloud.xyz.copy(), agg.labeled.semantic.copy()
        track = extract_track(agg, 5)
        switched = apply_switch(agg, track, moving_to_static(track))
        assert np.array_equal(agg.labeled.cloud.xyz, xyz)
        assert np.array_equal(agg.labeled.semantic, semantic)
        labeled = switched.labeled
        columns = (labeled.cloud.xyz, labeled.cloud.intensity, labeled.semantic, labeled.instance,
                   switched.source_frame, switched.source_step)
        assert not any(column.flags.writeable for column in columns)
        assert labeled.cloud.xyz.T.flags.c_contiguous  # the copy stays column-stored
        checked = AggregatedCloud(
            LabeledCloud(PointCloud(*columns[:2]), *columns[2:4]), *columns[4:], switched.reference_frame
        )
        assert checked.labeled.cloud.xyz.tobytes() == labeled.cloud.xyz.tobytes()
        assert checked.labeled.semantic.tobytes() == labeled.semantic.tobytes()

    def test_identity_switch_changes_nothing(self):
        agg = make_scene(velocity=(2.0, 0.0, 0.0), class_id=252)
        track = extract_track(agg, 5)
        same = apply_switch(agg, track, track)
        assert np.array_equal(same.labeled.cloud.xyz, agg.labeled.cloud.xyz)
        assert np.array_equal(same.labeled.semantic, agg.labeled.semantic)

    def test_missing_class_pair_is_a_configuration_error(self):
        # fence (51) has no moving counterpart in DEFAULT_CLASS_PAIRS
        assert 51 not in DEFAULT_CLASS_PAIRS
        agg = make_scene(velocity=(0.0, 0.0, 0.0), class_id=51)
        track = extract_track(agg, 5)
        moved = static_to_moving(track, agg, ring_anchors(track.centroids[0]), seed=3)
        with pytest.raises(ConfigurationError, match="no moving counterpart configured for class 51"):
            apply_switch(agg, track, moved)

    def test_stale_track_is_rejected(self):
        agg = make_scene(velocity=(2.0, 0.0, 0.0), class_id=252)
        track = extract_track(agg, 5)
        shifted = track.translated(np.full((track.part_count, 3), 0.1))
        with pytest.raises(InvalidInputError):
            apply_switch(agg, shifted, moving_to_static(track))

    def test_frame_mismatch_is_rejected(self):
        agg = make_scene(velocity=(2.0, 0.0, 0.0), class_id=252)
        track = extract_track(agg, 5)
        trimmed = InstanceTrack(
            track.instance_id, track.class_id, track.frames[:-1], track.parts[:-1]
        )
        with pytest.raises(InvalidInputError):
            apply_switch(agg, track, trimmed)

    def test_interleaved_instances(self):
        # rows of instances 5 and 6 alternate within every frame
        rng = np.random.default_rng(31)
        source_frame = np.repeat([4, 3, 2], 12)
        instance = np.tile([5, 6, 0, 6, 5, 5], 6)
        xyz = rng.normal(size=(36, 3)) + 9.0
        xyz[instance == 5] = np.tile(rng.normal(size=(6, 3)), (3, 1))  # a static track
        agg = AggregatedCloud(
            LabeledCloud(PointCloud(xyz, rng.random(36)), np.where(instance == 5, 10, 40), instance),
            source_frame, np.where(source_frame == 4, 0, 1), 4,
        )
        track = extract_track(agg, 5)
        assert track.frames == (4, 3, 2) and track.class_id == 10
        for frame, part in zip(track.frames, track.parts):
            rows = (instance == 5) & (source_frame == frame)
            assert np.array_equal(part.xyz, xyz[rows])
            assert np.array_equal(part.intensity, agg.labeled.cloud.intensity[rows])
        moved = track.translated(np.array([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]]))
        switched = apply_switch(agg, track, moved)
        shift = np.select([source_frame == 4, source_frame == 3], [1.0, 2.0], 3.0)
        want = xyz.copy()
        want[instance == 5, 0] += shift[instance == 5]
        assert np.array_equal(switched.labeled.cloud.xyz, want)
        assert set(switched.labeled.semantic[instance == 5].tolist()) == {252}
        assert np.array_equal(switched.labeled.semantic[instance != 5], agg.labeled.semantic[instance != 5])
        # one point of one part moved by a hair no longer matches
        parts = list(track.parts)
        tampered = parts[1].xyz.copy()
        tampered[0, 2] = np.nextafter(tampered[0, 2], np.inf)
        parts[1] = PointCloud(tampered, parts[1].intensity)
        stale = InstanceTrack(5, 10, track.frames, tuple(parts))
        with pytest.raises(InvalidInputError, match="frame 3 does not match the aggregated cloud"):
            apply_switch(agg, stale, moved)

    def test_default_pair_table_is_involutive(self):
        forward = DEFAULT_CLASS_PAIRS
        assert len(set(forward.values())) == len(forward)
        assert all(static < 200 <= moving for static, moving in forward.items())


def test_switch_sequence_rejects_an_unknown_switch_before_reading(tmp_path):
    # the sequence directory does not exist: an error from reading it would be an OSError
    with pytest.raises(InvalidInputError, match=r"^switch must be one of static-to-moving, moving-to-static, got 'up'$"):
        switch_sequence(tmp_path / "missing", tmp_path / "out", 5, "up")
    assert not (tmp_path / "out").exists()
