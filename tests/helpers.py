"""Shared helpers for the test suite: random geometry, tiny scenes, and the
brute-force aggregation oracle the implementation is checked against."""

from __future__ import annotations

import dataclasses

import numpy as np

from lidarseq.aggregation import (
    INFINITE_STEP,
    AggregatedCloud,
    ClassGroup,
    DistanceSplit,
    GroupDivision,
)
from lidarseq.geometry import LabeledCloud, Pose, PointCloud, relative_pose
from lidarseq.sequence import EgoSpec, InstanceSpec, SyntheticSceneSpec


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via SVD of a Gaussian matrix."""
    mat = rng.normal(size=(3, 3))
    u, _, vt = np.linalg.svd(mat)
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        rot[:, 0] *= -1.0
    return rot


def random_pose(rng: np.random.Generator, trans_scale: float = 10.0) -> Pose:
    return Pose.from_rotation_translation(
        random_rotation(rng), rng.normal(size=3) * trans_scale
    )


def random_cloud(rng: np.random.Generator, count: int, spread: float = 30.0) -> PointCloud:
    return PointCloud(rng.normal(size=(count, 3)) * spread, rng.random(count))


def random_labeled(
    rng: np.random.Generator,
    count: int,
    classes=(1, 2, 3),
    instance_ids=(0,),
    spread: float = 30.0,
) -> LabeledCloud:
    return LabeledCloud(
        random_cloud(rng, count, spread),
        rng.choice(np.asarray(classes, np.int64), size=count),
        rng.choice(np.asarray(instance_ids, np.int64), size=count),
    )


def widened(frame):
    """A twin of ``frame`` whose columns are float64 and int64, however the frame holds them."""
    cloud, labeled = frame.labeled.cloud, frame.labeled
    twin = LabeledCloud(PointCloud(cloud.xyz.astype(np.float64), cloud.intensity.astype(np.float64)),
                        labeled.semantic.astype(np.int64), labeled.instance.astype(np.int64))
    return dataclasses.replace(frame, labeled=twin)


# ---------------------------------------------------------------------------
# aggregation oracle: concatenate everything, then filter per group


def agg_rows(agg: AggregatedCloud) -> np.ndarray:
    """One float64 row per point: xyz, intensity, labels and source tags."""
    return np.column_stack(
        [
            agg.labeled.cloud.xyz,
            agg.labeled.cloud.intensity,
            agg.labeled.semantic.astype(np.float64),
            agg.labeled.instance.astype(np.float64),
            agg.source_frame.astype(np.float64),
            agg.source_step.astype(np.float64),
        ]
    )


def sort_rows(rows: np.ndarray) -> np.ndarray:
    if rows.shape[0] == 0:
        return rows
    return rows[np.lexsort(rows.T[::-1])]


def fsa_oracle_rows(frames, t: int, division: GroupDivision) -> np.ndarray:
    """Brute-force reference for aggregate_fsa.

    Transforms every sweep in the window into frame t up front, then keeps,
    for each group, the points whose class belongs to the group and whose
    sweep offset is a multiple of the step that applies to them.
    """
    by_index = {f.index: f for f in frames}
    first = min(by_index)
    present = by_index[t]

    moved_all = {}
    for offset in range(1, division.window + 1):
        source = t - offset
        if source < first:
            continue
        frame = by_index[source]
        moved = relative_pose(present.pose, frame.pose).apply(frame.labeled.cloud.xyz)
        own_range = np.linalg.norm(frame.labeled.cloud.xyz, axis=1)
        moved_all[offset] = (frame, moved, own_range)

    group_specs = [(g.classes, g.step, g.distance_split) for g in division.groups]
    if division.default_step is not None and division.default_step != INFINITE_STEP:
        mapped = set()
        for g in division.groups:
            mapped |= g.classes
        seen = set()
        for idx, frame in by_index.items():
            if t - division.window <= idx <= t:
                seen.update(np.unique(frame.labeled.semantic).tolist())
        leftover = frozenset(seen - mapped)
        if leftover:
            group_specs.append((leftover, division.default_step, None))

    chunks = [
        np.column_stack(
            [
                present.labeled.cloud.xyz,
                present.labeled.cloud.intensity,
                present.labeled.semantic.astype(np.float64),
                present.labeled.instance.astype(np.float64),
                np.full(present.count, float(t)),
                np.zeros(present.count),
            ]
        )
    ]
    for classes, step, split in group_specs:
        if step == INFINITE_STEP:
            continue
        base = int(step)
        keep_offsets = {i * base for i in range(1, division.window // base + 1)}
        near_step = base * split.near_step_multiplier if split is not None else None
        near_offsets = (
            {j * near_step for j in range(1, division.window // near_step + 1)}
            if split is not None
            else set()
        )
        class_list = np.array(sorted(classes), dtype=np.int64)
        for offset, (frame, moved, own_range) in moved_all.items():
            in_class = np.isin(frame.labeled.semantic, class_list)
            if split is None:
                keep = in_class if offset in keep_offsets else np.zeros_like(in_class)
                steps = np.full(frame.count, base)
            else:
                near = own_range < split.threshold_m
                keep = np.zeros_like(in_class)
                steps = np.full(frame.count, base)
                if offset in keep_offsets:
                    keep |= in_class & ~near
                if offset in near_offsets:
                    keep |= in_class & near
                    steps[near] = near_step
            if not keep.any():
                continue
            chunks.append(
                np.column_stack(
                    [
                        moved[keep],
                        frame.labeled.cloud.intensity[keep],
                        frame.labeled.semantic[keep].astype(np.float64),
                        frame.labeled.instance[keep].astype(np.float64),
                        np.full(int(keep.sum()), float(frame.index)),
                        steps[keep].astype(np.float64),
                    ]
                )
            )
    return np.vstack(chunks)


# ---------------------------------------------------------------------------
# randomized scenes and divisions


def random_scene_spec(rng: np.random.Generator, max_frames=10, max_points=1000, max_classes=6):
    class_count = int(rng.integers(2, max_classes + 1))
    class_ids = sorted(rng.choice(np.arange(1, 20), size=class_count, replace=False).tolist())
    weights = rng.dirichlet(np.ones(class_count))
    classes = {cid: float(w) for cid, w in zip(class_ids, weights)}
    points = int(rng.integers(60, max_points + 1))
    instances = ()
    if rng.random() < 0.5:
        heavy = max(classes, key=classes.get)
        budget = int(classes[heavy] * points * 0.3)
        if budget >= 2:
            instances = (
                InstanceSpec(
                    class_id=int(heavy),
                    points=int(rng.integers(1, budget)),
                    center=tuple(rng.uniform(-15, 15, size=3)),
                    velocity=tuple(rng.uniform(-2, 2, size=3) * (rng.random() < 0.5)),
                ),
            )
    return SyntheticSceneSpec(
        frame_count=int(rng.integers(2, max_frames + 1)),
        points_per_frame=points,
        classes=classes,
        instances=instances,
        ego=EgoSpec(
            start=tuple(rng.uniform(-5, 5, size=3)),
            velocity=tuple(rng.uniform(-3, 3, size=3)),
            yaw_rate_deg=float(rng.uniform(-30, 30)),
        ),
        seed=int(rng.integers(0, 2**31)),
    )


def random_division(rng: np.random.Generator, class_ids) -> GroupDivision:
    ids = list(class_ids)
    rng.shuffle(ids)
    if rng.random() < 0.3 and len(ids) > 1:
        ids = ids[: len(ids) - 1]  # leave a class for the default group
    group_count = int(rng.integers(1, min(3, len(ids)) + 1))
    cuts = sorted(rng.choice(np.arange(1, len(ids)), size=group_count - 1, replace=False).tolist()) if group_count > 1 else []
    pieces = np.split(np.array(ids), cuts)
    groups = []
    for piece in pieces:
        step = rng.choice([1.0, 2.0, 3.0, 4.0, np.inf])
        split = None
        if np.isfinite(step) and rng.random() < 0.4:
            split = DistanceSplit(
                threshold_m=float(rng.uniform(5.0, 30.0)),
                near_step_multiplier=int(rng.integers(2, 4)),
            )
        groups.append(
            ClassGroup(
                frozenset(int(c) for c in piece),
                INFINITE_STEP if np.isinf(step) else int(step),
                split,
            )
        )
    default_step = INFINITE_STEP if rng.random() < 0.5 else int(rng.integers(1, 5))
    return GroupDivision(
        tuple(groups),
        window=int(rng.integers(1, 9)),
        default_step=default_step,
    )
