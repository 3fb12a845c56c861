"""Static-Moving Switch Augmentation over aggregated clouds.

An instance observed across several sweeps leaves one temporal part per
frame. Collapsing those parts onto the newest centroid turns a moving object
into a static one; spreading a static object's parts along a constant
per-step offset toward a low-occupancy anchor does the reverse. Both
directions are pure translations, so each part keeps its shape exactly.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .aggregation import AggregatedCloud
from .errors import ConfigurationError, InvalidInputError, NotAugmentableError
from .geometry import LabeledCloud, PointCloud, Pose, _from_checked, _seeded_rng, relative_pose
from .sequence import _frame_reader, _parse_calib, _write_frames, default_camera_calib, reference_frame

DEFAULT_MOTION_THRESHOLD = 0.2  # meters of centroid travel across the track
SPEED_RANGE = (0.2, 1.0)  # meters per frame-step
DEFAULT_RING_RADIUS = 3.0
COVERAGE_RADIUS = 2.0  # meters: radius of the vertical cylinder each anchor covers

# SemanticKITTI movable classes and their moving-state counterparts.
DEFAULT_CLASS_PAIRS: dict[int, int] = {
    10: 252,  # car / moving-car
    13: 257,  # bus / moving-bus
    16: 256,  # on-rails / moving-on-rails
    18: 258,  # truck / moving-truck
    20: 259,  # other-vehicle / moving-other-vehicle
    30: 254,  # person / moving-person
    31: 253,  # bicyclist / moving-bicyclist
    32: 255,  # motorcyclist / moving-motorcyclist
}

STATIC = "static"
MOVING = "moving"
SWITCHES = ("static-to-moving", "moving-to-static")


@dataclass(frozen=True)
class InstanceTrack:
    """One instance's temporal parts in present-frame coordinates.

    frames descend (the present part first); parts and centroids run
    parallel to frames and every part is non-empty.
    """

    instance_id: int
    class_id: int
    frames: tuple[int, ...]
    parts: tuple[PointCloud, ...]

    def __post_init__(self):
        if len(self.parts) != len(self.frames) or not self.parts:
            raise InvalidInputError("a track needs one part per frame")
        if list(self.frames) != sorted(self.frames, reverse=True):
            raise InvalidInputError("track frames must descend from the present")
        if len(set(self.frames)) != len(self.frames):
            raise InvalidInputError("duplicate frame in track")
        if any(part.count == 0 for part in self.parts):
            raise InvalidInputError("empty temporal part")
        # row-major, so numpy sums row after row; it sums column-stored axes pairwise
        centroids = np.stack([np.ascontiguousarray(part.xyz).mean(axis=0) for part in self.parts])
        centroids.setflags(write=False)
        object.__setattr__(self, "centroids", centroids)

    @property
    def part_count(self) -> int:
        return len(self.parts)

    @property
    def total_points(self) -> int:
        return sum(part.count for part in self.parts)

    def translated(self, offsets: np.ndarray) -> "InstanceTrack":
        """New track with part i shifted by offsets[i]."""
        moved = tuple(
            PointCloud(part.xyz + offsets[i], part.intensity)
            for i, part in enumerate(self.parts)
        )
        return InstanceTrack(self.instance_id, self.class_id, self.frames, moved)


@dataclass(frozen=True)
class AnchorSet:
    """Candidate drop positions, each owning a vertical cylinder of radius ``COVERAGE_RADIUS``."""

    positions: np.ndarray

    def __post_init__(self):
        positions = np.ascontiguousarray(np.asarray(self.positions, dtype=np.float64))
        if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] < 1:
            raise InvalidInputError("anchors must be a non-empty (K, 3) array")
        if not np.isfinite(positions).all():
            raise InvalidInputError("anchor positions must be finite")
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def ring_anchors(center, ring_radius: float = DEFAULT_RING_RADIUS) -> AnchorSet:
    """Eight anchors on a ground-plane circle around a center point."""
    center = np.asarray(center, dtype=np.float64)
    angles = 2.0 * np.pi * np.arange(8) / 8
    positions = np.tile(center, (8, 1))
    positions[:, 0] += ring_radius * np.cos(angles)
    positions[:, 1] += ring_radius * np.sin(angles)
    return AnchorSet(positions)


def extract_track(agg: AggregatedCloud, instance_id: int) -> InstanceTrack:
    """Crop one instance's temporal parts out of an aggregated cloud.

    Parts are grouped by source frame, newest first, in the aggregation's
    present-frame coordinates. An instance seen in fewer than two frames has
    no temporal structure to rewrite.
    """
    rows = np.flatnonzero(agg.labeled.instance == instance_id)
    if rows.shape[0] == 0:
        raise NotAugmentableError(f"instance {instance_id} is not in the cloud")
    source = agg.source_frame[rows]
    frames_present = np.unique(source)
    if frames_present.shape[0] < 2:
        raise NotAugmentableError(
            f"instance {instance_id} appears in a single frame; nothing to switch"
        )
    semantic = agg.labeled.semantic[rows]
    ids, freq = np.unique(semantic, return_counts=True)
    class_id = int(ids[np.argmax(freq)])
    cloud = agg.labeled.cloud
    picks = [rows[source == frame] for frame in frames_present[::-1]]
    parts = tuple(PointCloud(np.take(cloud.xyz.T, pick, axis=1).T, cloud.intensity[pick]) for pick in picks)
    return InstanceTrack(int(instance_id), class_id, tuple(int(f) for f in frames_present[::-1]), parts)


def _max_centroid_spread(track: InstanceTrack) -> float:
    diffs = track.centroids[:, None, :] - track.centroids[None, :, :]
    return float(np.sqrt((diffs**2).sum(axis=2)).max())


def classify_motion(track: InstanceTrack, threshold: float = DEFAULT_MOTION_THRESHOLD) -> str:
    """"moving" when any two part centroids sit further apart than threshold."""
    return MOVING if _max_centroid_spread(track) > threshold else STATIC


def moving_to_static(track: InstanceTrack, threshold: float = DEFAULT_MOTION_THRESHOLD) -> InstanceTrack:
    """Collapse every temporal part onto the newest centroid.

    Part i moves by C_0 - C_i, a pure translation, so per-part shape is
    untouched and all centroids coincide afterwards.
    """
    if classify_motion(track, threshold) != MOVING:
        raise NotAugmentableError("track is already static")
    offsets = track.centroids[0] - track.centroids
    return track.translated(offsets)


def _motion_axis(track: InstanceTrack) -> np.ndarray:
    """Unit axis along the longer horizontal side of the track's bounding box.

    "Width and height" are read as the two horizontal extents of the
    axis-aligned box, so the motion stays horizontal.
    """
    xyz = np.concatenate([part.xyz for part in track.parts], axis=0)
    extent = xyz.max(axis=0) - xyz.min(axis=0)
    return np.array([1.0, 0.0, 0.0]) if extent[0] >= extent[1] else np.array([0.0, 1.0, 0.0])


def _in_anchor_box(anchors: AnchorSet, xyz: np.ndarray) -> np.ndarray:
    """The rows of (N, 3) ``xyz`` in the anchors' box widened by twice the coverage
    radius: only they can be covered; so wide a margin leaves rounding no edge to cut."""
    reach = 2 * COVERAGE_RADIUS
    lo, hi = anchors.positions.min(axis=0) - reach, anchors.positions.max(axis=0) + reach
    x, y = xyz[:, 0], xyz[:, 1]
    return xyz[(x >= lo[0]) & (x <= hi[0]) & (y >= lo[1]) & (y <= hi[1])]


def _anchor_coverage(anchors: AnchorSet, scene) -> np.ndarray:
    """How many points of ``scene`` (an aggregated cloud or (N, 3) points, in float64) each anchor's
    cylinder covers, as an int64 (K,) array. Only the points ``_in_anchor_box`` keeps are measured,
    and the counts of a split of the points add up to those of the whole."""
    xyz = scene.labeled.cloud.xyz if isinstance(scene, AggregatedCloud) else np.asarray(scene, dtype=np.float64)
    x, y, _ = _in_anchor_box(anchors, xyz).T
    return np.array([((x - px) ** 2 + (y - py) ** 2 <= COVERAGE_RADIUS**2).sum()
                     for px, py, _ in anchors.positions], dtype=np.int64)


def _static_to_moving(track: InstanceTrack, anchors: AnchorSet, coverage, seed, threshold) -> InstanceTrack:
    """``static_to_moving`` with the anchors' coverage counts, which ``coverage()`` returns once the
    motion check and the seed have passed."""
    if classify_motion(track, threshold) != STATIC:
        raise NotAugmentableError("track is already moving")
    rng = _seeded_rng(seed=seed)
    speed = rng.uniform(*SPEED_RANGE)
    sign = 1.0 if rng.integers(0, 2) == 0 else -1.0
    d = sign * speed * _motion_axis(track)
    anchor = anchors.positions[np.argmin(coverage())]  # argmin takes the lowest index on ties
    base = anchor - track.centroids[0]
    steps = np.arange(track.part_count, dtype=np.float64)[:, None]
    return track.translated(base[None, :] + steps * d[None, :])


def static_to_moving(track: InstanceTrack, scene, anchors: AnchorSet, seed: int = 0,
                     threshold: float = DEFAULT_MOTION_THRESHOLD) -> InstanceTrack:
    """Give a static track a constant per-step offset at a quiet anchor.

    The whole track first moves so its newest centroid lands on the anchor
    whose coverage cylinder holds the fewest scene points, then part i slides
    a further i * d, where d points along the box's longer horizontal axis
    with a seeded sign and a seeded speed drawn from ``SPEED_RANGE``. Older
    parts trail behind the present one, so adjacent centroid offsets all
    equal d. ``scene`` is an aggregated cloud or an (N, 3) array of points;
    only those in ``_in_anchor_box`` count, so that cut of it gives the same.
    """
    return _static_to_moving(track, anchors, lambda: _anchor_coverage(anchors, scene), seed, threshold)


def _remap_class(class_id: int, table: Mapping[int, int], direction: str) -> int:
    if class_id not in table:
        raise ConfigurationError(f"no {direction} counterpart configured for class {class_id}")
    return table[class_id]


def apply_switch(agg: AggregatedCloud, track_old: InstanceTrack, track_new: InstanceTrack,
                 threshold: float = DEFAULT_MOTION_THRESHOLD) -> AggregatedCloud:
    """Swap an instance's old temporal parts for switched ones in place.

    Only the tracked points move; everything else in the cloud comes back
    bit for bit. When the switch flips the motion state, the moved points'
    semantic labels cross to the paired static/moving class id of
    ``DEFAULT_CLASS_PAIRS``.
    """
    if track_old.frames != track_new.frames:
        raise InvalidInputError("old and new tracks cover different frames")
    if any(a.count != b.count for a, b in zip(track_old.parts, track_new.parts)):
        raise InvalidInputError("old and new tracks disagree on part sizes")

    old_state = classify_motion(track_old, threshold)
    new_state = classify_motion(track_new, threshold)
    xyz = agg.labeled.cloud.xyz.copy(order="K")  # stays column-stored
    semantic = agg.labeled.semantic.copy()
    rows = np.flatnonzero(agg.labeled.instance == track_old.instance_id)
    source = agg.source_frame[rows]

    for frame, old_part, new_part in zip(track_old.frames, track_old.parts, track_new.parts):
        pick = rows[source == frame]
        if pick.shape[0] != old_part.count or not np.array_equal(xyz[pick], old_part.xyz):
            raise InvalidInputError(
                f"track part at frame {frame} does not match the aggregated cloud"
            )
        xyz[pick] = new_part.xyz
        if old_state != new_state:
            table = DEFAULT_CLASS_PAIRS
            if new_state == STATIC:
                table = {moving: static for static, moving in table.items()}
            ids = np.unique(semantic[pick])
            remap = {int(c): _remap_class(int(c), table, new_state) for c in ids}
            semantic[pick] = np.vectorize(remap.get, otypes=[np.int64])(semantic[pick])

    cloud = _from_checked(PointCloud, xyz, agg.labeled.cloud.intensity)
    labeled = _from_checked(LabeledCloud, cloud, semantic, agg.labeled.instance)
    return _from_checked(AggregatedCloud, labeled, agg.source_frame, agg.source_step, agg.reference_frame)


def switch_sequence(seq_dir, out_dir, instance: int, switch: str, frame: int | None = None,
                    threshold: float = DEFAULT_MOTION_THRESHOLD, ring_radius: float = DEFAULT_RING_RADIUS,
                    seed: int = 0) -> tuple[str, str, int]:
    """Switch an instance's motion state in the sequence directory ``seq_dir`` and write all its frames,
    with its calib.txt and image_2/, to ``out_dir``, as switching the track in ``aggregate_direct`` of
    frames 0..t at t (``frame``, by default the last) would; static-to-moving takes the ``ring_anchors``
    around the newest part. ``switch`` is one of ``SWITCHES``. Returns the motion state before and after,
    and the frame count.

    Frames are decoded one at a time. Pass 1 walks t down to frame 0, as aggregate_direct orders its
    parts, and keeps the instance's rows moved into frame t and, for static-to-moving, the sum of each
    frame's ``_anchor_coverage`` (frames walked before the newest part are decoded again for it); then it
    decodes the frames after t, so that a broken one is reported before any file is written.
    """
    if switch not in SWITCHES:
        raise InvalidInputError(f"switch must be one of {', '.join(SWITCHES)}, got {switch!r}")
    count, read = _frame_reader(seq_dir)
    t = reference_frame(seq_dir, frame, count)
    columns = [(np.empty((0, 3)), np.empty(0), *np.empty((3, 0), np.int64))]
    poses, coverage, anchors = {}, 0, None

    def moved(sweep, rows=slice(None)):  # into frame t's coordinates, as aggregate_direct moves them
        xyz = sweep.labeled.cloud.xyz[rows]
        return xyz if sweep.index == t else relative_pose(poses[t], sweep.pose).apply(xyz)

    for index in range(t, -1, -1):
        sweep = read(index)
        labeled, rows = sweep.labeled, np.flatnonzero(sweep.labeled.instance == instance)
        if index == t or rows.size:
            poses[index] = sweep.pose
        if rows.size:
            columns.append((moved(sweep, rows), labeled.cloud.intensity[rows], labeled.semantic[rows],
                            labeled.instance[rows], np.full(rows.size, index)))
        if switch == "static-to-moving":
            if anchors is None and rows.size:  # the newest part's centroid as InstanceTrack takes it, in float64
                anchors = ring_anchors(np.ascontiguousarray(columns[-1][0], np.float64).mean(axis=0), ring_radius)
                coverage = sum(_anchor_coverage(anchors, moved(read(newer))) for newer in range(t, index, -1))
            if anchors is not None:
                coverage += _anchor_coverage(anchors, moved(sweep))
    for index in range(t + 1, count):
        read(index)

    xyz, intensity, semantic, instances, source = map(np.concatenate, zip(*columns))
    tracked = AggregatedCloud(LabeledCloud(PointCloud(xyz, intensity), semantic, instances), source, source != t, t)
    track = extract_track(tracked, instance)
    switched_track = (moving_to_static(track, threshold) if switch == "moving-to-static"
                      else _static_to_moving(track, anchors, lambda: coverage, seed, threshold))
    switched = apply_switch(tracked, track, switched_track, threshold=threshold)
    # each tracked frame's new instance rows, moved back here: a helper thread of pass 2 calls no Pose.apply
    rewritten = {index: (relative_pose(poses[index], poses[t]).apply(part.xyz),
                         switched.labeled.semantic[switched.source_frame == index])
                 for index, part in zip(track.frames, switched_track.parts)}

    def frame_at(slot):  # a frame's rows keep its own point order, so the instance rows align
        sweep = read(slot)
        if slot not in rewritten:
            return sweep
        labeled, is_instance = sweep.labeled, sweep.labeled.instance == instance
        xyz, semantic = labeled.cloud.xyz.copy(order="K"), labeled.semantic.copy()  # xyz stays column-stored
        xyz[is_instance], semantic[is_instance] = rewritten[slot]
        cloud = PointCloud(xyz, labeled.cloud.intensity)
        return replace(sweep, labeled=LabeledCloud(cloud, semantic, labeled.instance))

    source_dir, out_dir = Path(seq_dir), Path(out_dir)
    # poses.txt rows beside the source's Tr, then its calib.txt and images: file indices stay the same
    calib_text = (source_dir / "calib.txt").read_bytes()
    tr = Pose(_parse_calib(source_dir / "calib.txt")["Tr"])
    _write_frames(out_dir, count, frame_at, replace(default_camera_calib(), extrinsic=tr))
    (out_dir / "calib.txt").write_bytes(calib_text)
    if (source_dir / "image_2").is_dir() and out_dir.resolve() != source_dir.resolve():
        shutil.copytree(source_dir / "image_2", out_dir / "image_2", dirs_exist_ok=True)
    return classify_motion(track, threshold), classify_motion(switched_track, threshold), count
