"""Acceptance gates: one test per shipped guarantee, at the stated tolerance.

Each test here is an end-to-end check of a headline contract; the module
suites cover the same ground in finer grain. Oracles are imported from the
shared helpers or defined locally as plain scalar loops.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import yaml

import lidarseq
from lidarseq.aggregation import (
    aggregate_direct,
    aggregate_fsa,
    division_preset,
)
from lidarseq.augment import apply_switch, classify_motion, extract_track, moving_to_static, ring_anchors, static_to_moving
from lidarseq.bench import run_bench
from lidarseq.distill import distill_loss
from lidarseq.errors import FormatError
from lidarseq.geometry import Pose, compose, invert
from lidarseq.imaging import aggregate_image_features, lift_features, project_to_image, synthetic_feature_image
from lidarseq.sequence import (
    EgoSpec,
    InstanceSpec,
    SyntheticSceneSpec,
    default_camera_calib,
    generate_synthetic,
    load_sequence,
    write_sequence,
)
from lidarseq.voxels import VoxelFeatureMap, apply_fixed_kernel, gather_trilinear, seeded_kernel, voxelize

from helpers import (
    agg_rows,
    fsa_oracle_rows,
    random_division,
    random_pose,
    random_scene_spec,
    sort_rows,
)


def test_criterion_01_fsa_matches_the_concat_then_filter_oracle():
    # 200 random sequences (<= 10 frames, <= 1000 points, <= 6 classes) with
    # random divisions: exact multiset equality including source tags,
    # under 10 seconds all-in
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    for trial in range(200):
        spec = random_scene_spec(rng, max_frames=10, max_points=1000, max_classes=6)
        frames = generate_synthetic(spec)
        division = random_division(rng, sorted(spec.classes))
        t = int(rng.integers(0, spec.frame_count))
        got = sort_rows(agg_rows(aggregate_fsa(frames, t, division)))
        want = sort_rows(fsa_oracle_rows(frames, t, division))
        assert np.array_equal(got, want), f"trial {trial} diverged from the oracle"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"200 oracle comparisons took {elapsed:.1f}s"


def test_criterion_02_sparse_division_cuts_points_and_time_versus_direct(monkeypatch):
    # road-heavy histogram: the infinite-step band of division3 holds 75% of
    # the points, so its aggregate must stay under 40% of direct's, and it must
    # move fewer rows through Pose.apply, the largest cost of aggregation (the
    # work is counted, not timed: a wall-clock bound would gate on host noise)
    spec = SyntheticSceneSpec(
        frame_count=20,
        points_per_frame=8000,
        classes={9: 0.35, 15: 0.20, 13: 0.15, 1: 0.05, 11: 0.10, 17: 0.07, 6: 0.05, 18: 0.03},
        seed=2,
        extent=45.0,
    )
    frames = generate_synthetic(spec)
    division = division_preset("division3", window=16)
    infinite_classes = set().union(
        *(g.classes for g in division.groups if math.isinf(g.step))
    )
    histogram_share = sum(spec.classes[c] for c in infinite_classes if c in spec.classes)
    assert histogram_share >= 0.70

    moved, apply = [], Pose.apply

    def recording(pose, xyz, out=None):
        moved.append(len(xyz))
        return apply(pose, xyz, out=out)

    monkeypatch.setattr(Pose, "apply", recording)
    direct_count = aggregate_direct(frames, 19, 16).count
    direct_moved, moved[:] = sum(moved), []
    fsa_count = aggregate_fsa(frames, 19, division).count
    fsa_moved = sum(moved)
    assert fsa_count <= 0.40 * direct_count, (
        f"fsa kept {fsa_count} of {direct_count} points ({fsa_count / direct_count:.1%})"
    )
    assert 0 < fsa_moved < direct_moved, f"rows moved: fsa {fsa_moved}, direct {direct_moved}"


def test_criterion_03_window_sweep_rows_are_monotone():
    spec = SyntheticSceneSpec(
        frame_count=30,
        points_per_frame=900,
        classes={9: 0.4, 15: 0.2, 1: 0.15, 11: 0.15, 6: 0.1},
        seed=3,
        extent=35.0,
    )
    frames = generate_synthetic(spec)
    windows = [4, 8, 12, 16, 20, 24, 28]
    report = run_bench(
        frames, ["fsa"], t_values=[29], windows=windows,
        division=division_preset("division3"), repeats=1,
    )
    assert len(report.rows) == 7
    assert [row.window for row in report.rows] == windows
    counts = [row.points for row in report.rows]
    assert counts == sorted(counts), f"counts not monotone: {counts}"


def test_criterion_04_pose_round_trips_stay_below_1e9():
    rng = np.random.default_rng(4)
    worst_round_trip = 0.0
    worst_rigidity = 0.0
    for _ in range(1000):
        pose = random_pose(rng)
        xyz = rng.uniform(-50, 50, size=(20, 3))
        back = invert(pose).apply(pose.apply(xyz))
        worst_round_trip = max(worst_round_trip, float(np.abs(back - xyz).max()))
        ident = compose(invert(pose), pose)
        worst_round_trip = max(
            worst_round_trip,
            float(np.abs(ident.matrix - Pose.identity().matrix).max()),
        )
        moved = pose.apply(xyz)
        d_before = np.linalg.norm(xyz[:10] - xyz[10:], axis=1)
        d_after = np.linalg.norm(moved[:10] - moved[10:], axis=1)
        worst_rigidity = max(worst_rigidity, float(np.abs(d_before - d_after).max()))
    assert worst_round_trip < 1e-9
    assert worst_rigidity < 1e-9


def test_criterion_05_trilinear_gather_meets_the_scalar_contract():
    # full corner cage: weights sum to 1
    coords = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int64)
    cage = VoxelFeatureMap(1.0, np.zeros(3), coords, np.ones((8, 1)))
    rng = np.random.default_rng(5)
    queries = rng.uniform(0.5, 1.5, size=(500, 3))
    assert np.abs(gather_trilinear(cage, queries) - 1.0).max() < 1e-12

    # constant field reproduced wherever any neighbor is occupied
    coords = np.unique(rng.integers(-5, 6, size=(200, 3)), axis=0)
    const = VoxelFeatureMap(0.4, np.zeros(3), coords, np.full((coords.shape[0], 2), 3.25))
    queries = rng.uniform(-2.5, 2.5, size=(2000, 3))
    got = gather_trilinear(const, queries)
    touched = np.abs(got).sum(axis=1) > 0
    assert touched.any()
    assert np.abs(got[touched] - 3.25).max() < 1e-12

    # 10,000 random queries against a per-query scalar oracle
    feats = rng.normal(size=(coords.shape[0], 3))
    vmap = VoxelFeatureMap(0.4, rng.normal(size=3), coords, feats)
    table = {tuple(c): f for c, f in zip(vmap.coords.tolist(), vmap.features)}
    queries = rng.uniform(-2.5, 2.5, size=(10_000, 3)) + vmap.origin
    got = gather_trilinear(vmap, queries)
    corners = list(itertools.product((0, 1), repeat=3))
    for q, row in zip(queries, got):
        u = (q - vmap.origin) / vmap.voxel_size - 0.5
        base = np.floor(u).astype(int)
        frac = u - base
        acc = np.zeros(3)
        wsum = 0.0
        for corner in corners:
            w = 1.0
            for axis in range(3):
                w *= frac[axis] if corner[axis] else 1.0 - frac[axis]
            hit = table.get((base[0] + corner[0], base[1] + corner[1], base[2] + corner[2]))
            if hit is not None:
                acc = acc + w * hit
                wsum += w
        want = acc / wsum if wsum > 0 else np.zeros(3)
        assert np.abs(row - want).max() < 1e-12


def test_criterion_06_fixed_kernel_matches_a_dense_convolution():
    rng = np.random.default_rng(6)
    for trial in range(100):
        coords = np.unique(rng.integers(-4, 5, size=(40, 3)), axis=0)
        width = int(rng.integers(1, 5))
        feats = rng.normal(size=(coords.shape[0], width))
        vmap = VoxelFeatureMap(0.5, np.zeros(3), coords, feats)
        kernel = seeded_kernel(width, trial)
        got = apply_fixed_kernel(vmap, kernel)

        lo = coords.min(axis=0) - 1
        shape = tuple((coords.max(axis=0) + 2 - lo).tolist())
        dense = np.zeros(shape + (width,))
        occupied = np.zeros(shape, dtype=bool)
        for c, f in zip(coords - lo, feats):
            dense[tuple(c)] = f
            occupied[tuple(c)] = True
        for c, out_row in zip(coords, got.features):
            acc = np.zeros(width)
            for d in itertools.product((-1, 0, 1), repeat=3):
                n = tuple(c - lo + np.array(d))
                if occupied[n]:
                    acc += kernel[d[0] + 1, d[1] + 1, d[2] + 1] @ dense[n]
            assert np.abs(out_row - acc).max() < 1e-9

    # linearity in the features
    coords = np.unique(rng.integers(-4, 5, size=(50, 3)), axis=0)
    a = rng.normal(size=(coords.shape[0], 3))
    b = rng.normal(size=(coords.shape[0], 3))
    kernel = seeded_kernel(3, 999)
    base = VoxelFeatureMap(0.5, np.zeros(3), coords, a)
    other = VoxelFeatureMap(0.5, np.zeros(3), coords, b)
    summed = VoxelFeatureMap(0.5, np.zeros(3), coords, a + 2.0 * b)
    lhs = apply_fixed_kernel(summed, kernel).features
    rhs = apply_fixed_kernel(base, kernel).features + 2.0 * apply_fixed_kernel(other, kernel).features
    assert np.abs(lhs - rhs).max() < 1e-9


def test_criterion_07_distillation_loss_arithmetic_is_exact():
    rng = np.random.default_rng(7)
    coords = np.unique(rng.integers(-4, 5, size=(60, 3)), axis=0)
    feats = rng.normal(size=(coords.shape[0], 4))
    vmap = VoxelFeatureMap(0.5, np.zeros(3), coords, feats)
    assert distill_loss(vmap, vmap) == 0.0

    one = np.array([[0, 0, 0]])
    student = VoxelFeatureMap(0.5, np.zeros(3), one, np.array([[3.0, 4.0]]))
    teacher = VoxelFeatureMap(0.5, np.zeros(3), one, np.array([[0.0, 0.0]]))
    assert distill_loss(student, teacher) == 5.0

    for _ in range(100):
        pool = rng.integers(-5, 6, size=(70, 3))
        ca = np.unique(pool[:45], axis=0)
        cb = np.unique(pool[25:], axis=0)
        width = int(rng.integers(1, 5))
        a = VoxelFeatureMap(0.5, np.zeros(3), ca, rng.normal(size=(ca.shape[0], width)))
        b = VoxelFeatureMap(0.5, np.zeros(3), cb, rng.normal(size=(cb.shape[0], width)))
        table = {tuple(c): f for c, f in zip(b.coords.tolist(), b.features)}
        norms = [
            math.sqrt(sum((x - y) ** 2 for x, y in zip(f, table[tuple(c)])))
            for c, f in zip(a.coords.tolist(), a.features)
            if tuple(c) in table
        ]
        want = sum(norms) / len(norms) if norms else 0.0
        assert abs(distill_loss(a, b) - want) < 1e-12
        assert distill_loss(a, b) == distill_loss(b, a)
        alpha = -1.75
        sa = VoxelFeatureMap(0.5, np.zeros(3), ca, a.features * alpha)
        sb = VoxelFeatureMap(0.5, np.zeros(3), cb, b.features * alpha)
        assert abs(distill_loss(sa, sb) - abs(alpha) * distill_loss(a, b)) < 1e-12


def test_criterion_08_temporal_lifting_expands_the_camera_fov():
    # ego covers 10 m over the 48-frame image window (25/12 m/s at 10 Hz)
    spec = SyntheticSceneSpec(
        frame_count=49,
        points_per_frame=800,
        classes={9: 0.5, 15: 0.3, 13: 0.2},
        ego=EgoSpec(velocity=(25.0 / 12.0, 0.0, 0.0)),
        seed=8,
        extent=40.0,
    )
    frames = generate_synthetic(spec)
    calib = default_camera_calib()
    displacement = np.linalg.norm(
        frames[48].pose.translation - frames[0].pose.translation
    )
    assert abs(displacement - 10.0) < 1e-9

    # the world is re-observed with stable row order, so per-frame FOV masks
    # index the same underlying points and their union is a set union
    sampled = [48, 36, 24, 12, 0]
    masks = []
    for idx in sampled:
        _, _, fov = project_to_image(frames[idx].labeled.cloud.xyz, calib)
        masks.append(fov)
    union = np.logical_or.reduce(masks)
    present = masks[0]
    assert union.sum() > present.sum(), (
        f"union {int(union.sum())} vs present {int(present.sum())}"
    )

    # aggregation at the defaults equals lift-per-frame-then-transform
    images = {f.index: synthetic_feature_image(calib, f.index, seed=1) for f in frames}
    out = aggregate_image_features(frames, images, calib, t=48)
    assert set(out.source_frame.tolist()) == set(sampled)
    parts_xyz, parts_feat, parts_src = [], [], []
    present_frame = frames[48]
    for idx in sampled:
        lifted = lift_features(frames[idx], images[idx], calib)
        world = frames[idx].pose.apply(lifted.xyz)
        local = invert(present_frame.pose).apply(world)
        parts_xyz.append(local)
        parts_feat.append(lifted.features)
        parts_src.append(lifted.source_frame)
    assert np.array_equal(out.source_frame, np.concatenate(parts_src))
    assert np.array_equal(out.features, np.concatenate(parts_feat))
    assert np.abs(out.xyz - np.concatenate(parts_xyz)).max() < 1e-9


def test_criterion_09_motion_switches_honor_their_contracts():
    rng = np.random.default_rng(9)
    for trial in range(100):
        moving = trial % 2 == 0
        speed = float(rng.uniform(1.0, 3.0)) if moving else 0.0
        heading = float(rng.uniform(0, 2 * np.pi))
        velocity = (speed * np.cos(heading), speed * np.sin(heading), 0.0)
        class_id = 252 if moving else 10
        spec = SyntheticSceneSpec(
            frame_count=5,
            points_per_frame=300,
            classes={9: 0.6, class_id: 0.4},
            instances=(
                InstanceSpec(
                    class_id=class_id, points=60,
                    center=(float(rng.uniform(5, 12)), float(rng.uniform(-4, 4)), 0.8),
                    velocity=velocity, instance_id=4,
                ),
            ),
            seed=trial,
            extent=30.0,
        )
        frames = generate_synthetic(spec)
        agg = aggregate_direct(frames, t=4, window=4)
        track = extract_track(agg, 4)
        before_dists = [
            np.linalg.norm(p.xyz[:, None, :] - p.xyz[None, :, :], axis=2)
            for p in track.parts
        ]

        if moving:
            switched = moving_to_static(track)
            spread = switched.centroids[:, None, :] - switched.centroids[None, :, :]
            assert np.sqrt((spread**2).sum(axis=2)).max() < 1e-9
        else:
            anchors = ring_anchors(track.centroids[0])
            switched = static_to_moving(track, agg, anchors, seed=trial)
            again = static_to_moving(track, agg, anchors, seed=trial)
            for pa, pb in zip(switched.parts, again.parts):
                assert np.array_equal(pa.xyz, pb.xyz)
            offsets = np.diff(switched.centroids, axis=0)
            assert np.abs(offsets - offsets[0]).max() < 1e-9
            assert classify_motion(switched) == "moving"

        for before, part in zip(before_dists, switched.parts):
            after = np.linalg.norm(part.xyz[:, None, :] - part.xyz[None, :, :], axis=2)
            assert np.abs(before - after).max() < 1e-9

        result = apply_switch(agg, track, switched)
        assert result.count == agg.count
        keep = agg.labeled.instance != 4
        assert np.array_equal(result.labeled.cloud.xyz[keep], agg.labeled.cloud.xyz[keep])
        assert np.array_equal(result.labeled.semantic[keep], agg.labeled.semantic[keep])
        assert np.array_equal(result.labeled.cloud.intensity, agg.labeled.cloud.intensity)


def test_criterion_10_disk_round_trip_is_byte_identical(tmp_path):
    spec = SyntheticSceneSpec(
        frame_count=6,
        points_per_frame=700,
        classes={9: 0.5, 1: 0.3, 15: 0.2},
        instances=(
            InstanceSpec(class_id=1, points=90, center=(9, 1, 0.7),
                         velocity=(1.5, 0, 0), instance_id=2),
        ),
        ego=EgoSpec(velocity=(1.0, 0.2, 0.0), yaw_rate_deg=3.0),
        seed=10,
        extent=30.0,
    )
    frames = generate_synthetic(spec)
    first = tmp_path / "first"
    second = tmp_path / "second"
    write_sequence(first, frames, spec.camera.calib())
    loaded = load_sequence(first)
    write_sequence(second, loaded, spec.camera.calib())

    first_files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert first_files == second_files
    for rel in first_files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel

    # truncated payloads are format errors, not silent misreads
    bin_path = first / "velodyne" / "000001.bin"
    bin_path.write_bytes(bin_path.read_bytes()[:-3])
    try:
        load_sequence(first)
        assert False, "truncated .bin accepted"
    except FormatError:
        pass
    label_path = second / "labels" / "000001.label"
    label_path.write_bytes(label_path.read_bytes()[:-2])
    try:
        load_sequence(second)
        assert False, "truncated .label accepted"
    except FormatError:
        pass


def test_criterion_11_cli_pipeline_smoke_completes_quickly(tmp_path):
    spec = {
        "frame_count": 8,
        "points_per_frame": 600,
        "classes": {9: 0.5, 1: 0.2, 15: 0.2, 6: 0.1},
        "ego": {"velocity": [1.5, 0.0, 0.0]},
        "seed": 11,
        "extent": 30.0,
    }
    spec_path = tmp_path / "scene.yaml"
    spec_path.write_text(yaml.safe_dump(spec))
    seq = tmp_path / "seq"
    cloud = tmp_path / "cloud.npz"
    student = tmp_path / "student.npz"
    teacher = tmp_path / "teacher.npz"
    report = tmp_path / "report.jsonl"

    # the CLI children import the same lidarseq as this test, installed or not
    src = os.path.dirname(os.path.dirname(lidarseq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "lidarseq.cli", *args],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, f"{args}: {proc.stderr}"
        return proc.stdout

    start = time.perf_counter()
    run("synth", str(spec_path), "--out", str(seq))
    out = run("aggregate", "--sequence", str(seq), "--strategy", "fsa",
              "--window", "6", "--out", str(cloud))
    assert "points" in out
    run("lift", "--sequence", str(seq), "--image-step", "2", "--image-window", "4",
        "--voxel-size", "0.3", "--seed", "1", "--out", str(student))
    run("lift", "--sequence", str(seq), "--image-step", "2", "--image-window", "4",
        "--voxel-size", "0.3", "--seed", "2", "--out", str(teacher))
    out = run("distill", "--student", str(student), "--teacher", str(teacher))
    assert out.startswith("scale_0")
    run("bench", "--sequence", str(seq), "--strategies", "direct,fsa",
        "--windows", "4", "--repeats", "1", "--format", "machine",
        "--out", str(report))
    elapsed = time.perf_counter() - start
    assert report.exists() and cloud.exists()
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
