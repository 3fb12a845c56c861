"""Temporal aggregation of LiDAR sequences with per-class-group steps.

Aggregation always targets a reference frame t: earlier sweeps are moved
into frame t's sensor coordinates through the pose chain and concatenated
after the unfiltered present sweep. A group division assigns every semantic
class a sampling step; a group with step s contributes the frames
``t - i*s`` for i = 1..floor(window / s), and the infinite step contributes
nothing (the class is covered by the present sweep alone).

Direct, stepped and flexible-step aggregation, and image lifting, share one
frame walk: frame t, then t - o for each offset o some step divides
(``sampled_frames``). A division without a default group walks every offset
of its window, so each of those frames is checked for unmapped classes. A
lookup table over the 16-bit label field gives every point the step of its
class's group (unmapped classes take the division's default step, near
points of a distance-split group the near step), and a point at offset k is
kept when its step divides k. The calling thread walks first, so a missing
frame is reported before any class is checked; then it and one helper pick
the kept rows of every other walked frame, raising the first error in walk
order. Each part is written once into its slice of one block, seven float64
rows (labels and source frame viewed as int64) and an int32 row of step tags:
the calling thread moves kept coordinates, the helper writes the other columns.
Both passes run on ``geometry._on_two_threads``, the one runner, which also
renders and writes synthetic scenes. Rows come out present sweep first,
then past sweeps by ascending offset.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .geometry import LabeledCloud, PointCloud, _from_checked, _is_whole, _on_two_threads, relative_pose
from .sequence import (
    LABEL_FIELD_SIZE, SequenceFrame, _check_fields, _entries, _from_mapping, _integer, _list, _nested, _number,
    _read_yaml,
)

INFINITE_STEP = math.inf

DEFAULT_WINDOW = 16


def _check_step(step, name: str = "step") -> float:
    if step == INFINITE_STEP:
        return INFINITE_STEP
    if not _is_whole(step) or step < 1:
        raise ConfigurationError(f"{name} must be a positive integer or infinite, got {step!r}")
    return float(int(step))


@dataclass(frozen=True)
class DistanceSplit:
    """Optional near/far refinement of one group.

    Points closer than ``threshold_m`` (range measured in their own source
    sweep) are sampled with ``near_step_multiplier`` times the group step;
    the rest keep the base step.
    """

    threshold_m: float
    near_step_multiplier: int = 2

    def __post_init__(self):
        _check_fields(self, ConfigurationError, threshold_m=_number, near_step_multiplier=_integer)
        if not self.threshold_m > 0:
            raise ConfigurationError("distance threshold must be positive")
        if self.near_step_multiplier < 1:
            raise ConfigurationError("near_step_multiplier must be a positive integer")


@dataclass(frozen=True)
class ClassGroup:
    classes: frozenset[int]
    step: float
    distance_split: DistanceSplit | None = None

    def __post_init__(self):
        bad = sorted((c for c in self.classes if not _is_whole(c)), key=repr)
        if bad:
            raise ConfigurationError(f"classes must be integers, got {bad[0]!r}")
        object.__setattr__(self, "classes", frozenset(map(int, self.classes)))
        if not self.classes:
            raise ConfigurationError("a class group cannot be empty")
        outside = sorted(c for c in self.classes if not 0 <= c < LABEL_FIELD_SIZE)
        if outside:
            raise ConfigurationError(f"class ids {outside} lie outside the label field [0, {LABEL_FIELD_SIZE - 1}]")
        object.__setattr__(self, "step", _check_step(self.step))
        _check_fields(self, ConfigurationError,
                      distance_split=lambda split: split if split is None else _nested(DistanceSplit)(split))
        if self.distance_split is not None and self.step == INFINITE_STEP:
            raise ConfigurationError("a distance split on an infinite step has no effect")

    def near_step(self) -> float:
        if self.distance_split is None:
            return self.step
        return self.step * self.distance_split.near_step_multiplier


@dataclass(frozen=True)
class GroupDivision:
    """Partition of semantic classes into groups with temporal steps.

    Classes not listed anywhere fall into an implicit default group with
    ``default_step`` (infinite unless overridden); set ``default_step=None``
    to make unmapped classes a configuration error instead.
    """

    groups: tuple[ClassGroup, ...]
    window: int = DEFAULT_WINDOW
    default_step: float | None = INFINITE_STEP
    name: str = "custom"

    def __post_init__(self):
        _check_fields(self, ConfigurationError, groups=_nested(ClassGroup, many=True), window=_integer)
        if not self.groups:
            raise ConfigurationError("a division needs at least one group")
        if self.window < 1:
            raise ConfigurationError(f"window must be a positive integer, got {self.window!r}")
        if self.default_step is not None:
            object.__setattr__(self, "default_step", _check_step(self.default_step, "default_step"))
        seen: dict[int, int] = {}
        for gi, group in enumerate(self.groups):
            for cid in group.classes:
                if cid in seen:
                    raise ConfigurationError(f"class {cid} appears in groups {seen[cid]} and {gi}")
                seen[cid] = gi

    def with_window(self, window: int) -> "GroupDivision":
        return dataclasses.replace(self, window=window)


@dataclass(frozen=True)
class AggregatedCloud:
    """Concatenated multi-sweep cloud in the reference frame's coordinates."""

    labeled: LabeledCloud
    source_frame: np.ndarray  # (N,) original frame index per point
    source_step: np.ndarray   # (N,) int32 step that sampled the point; 0 = present
    reference_frame: int

    def __post_init__(self):
        source_frame = np.asarray(self.source_frame, dtype=np.int64).reshape(-1)
        steps = np.asarray(self.source_step, dtype=np.int64).reshape(-1)
        source_step = steps.astype(np.int32)
        if (source_step != steps).any():  # the cast wrapped a value
            raise InvalidInputError(f"source_step {steps[source_step != steps][0]} lies outside int32")
        if source_frame.shape[0] != self.labeled.count or source_step.shape[0] != self.labeled.count:
            raise InvalidInputError("source tag lengths do not match the point count")
        source_frame.flags.writeable = False
        source_step.flags.writeable = False
        object.__setattr__(self, "source_frame", source_frame)
        object.__setattr__(self, "source_step", source_step)

    @property
    def count(self) -> int:
        return self.labeled.count


def sampled_offsets(steps, window: int) -> list[int]:
    """Window offsets sampled by any of ``steps``, ascending: i*s for each
    step s and i = 1..floor(window / s); the infinite step samples none."""
    if not _is_whole(window):
        raise InvalidInputError(f"window must be an integer, got {window!r}")
    offsets = set()
    for step in map(_check_step, steps):
        if step != INFINITE_STEP:
            offsets.update(range(int(step), int(window) + 1, int(step)))
    return sorted(offsets)


def sampled_frames(t: int, steps, window: int, first: int = 0) -> list[int]:
    """The frames a sampler with ``steps`` reads: t, then t - o for each
    sampled offset o, ascending; offsets reaching before ``first`` are
    truncated."""
    return [t, *(t - o for o in sampled_offsets(steps, min(window, t - first)))]


def walked_steps(groups: Sequence[ClassGroup], default_step: float | None) -> list[float]:
    """Steps whose offsets aggregation walks. A near step is a multiple of its
    group's step and adds no offset; without a default group every offset is
    walked, so that each frame of the window is checked for unmapped classes."""
    if default_step is None:
        return [1]
    return [g.step for g in groups] + [default_step]


def _walk(frames: Sequence[SequenceFrame], t: int, steps, window: int):
    """Frame t with pose None, then each frame ``sampled_frames`` names with
    its pose into frame t. The one frame walk behind every sampler."""
    if not frames:
        raise InvalidInputError("no frames given")
    by_index: dict[int, SequenceFrame] = {}
    for frame in frames:
        if frame.index in by_index:
            raise InvalidInputError(f"duplicate frame index {frame.index}")
        by_index[frame.index] = frame
    if t not in by_index:
        raise InvalidInputError(f"reference frame {t} is not among the given frames")
    present = by_index[t]
    yield present, None
    for index in sampled_frames(t, steps, window, min(by_index))[1:]:
        if index not in by_index:
            raise InvalidInputError(
                f"frame {index} is required for aggregation at t={t} but missing"
            )
        yield by_index[index], relative_pose(present.pose, by_index[index].pose)


def _take_into(column, rows, out) -> None:
    """``out[...] = column[rows]``, straight into ``out`` (mode="raise" would buffer it) where np.take can."""
    if column.dtype == out.dtype:
        np.take(column, rows, out=out, mode="clip")
    else:  # np.take writes no other dtype: a decoded frame's narrow column is gathered as it is, then cast
        out[...] = column[rows]


def _fill_columns(parts, outs) -> None:
    """Write each part's intensity, labels and source tags into its slice of ``outs`` (numpy only)."""
    for part, frame, _, rows, step_tags in parts:
        labeled = frame.labeled
        for out, column in zip(outs, (labeled.cloud.intensity, labeled.semantic, labeled.instance)):
            if rows is None:
                out[part] = column
            else:
                _take_into(column, rows, out[part])
        outs[3][part] = frame.index
        outs[4][part] = step_tags


def _aggregate(
    frames: Sequence[SequenceFrame],
    t: int,
    window: int,
    groups: Sequence[ClassGroup],
    default_step: float | None,
) -> AggregatedCloud:
    """The frame loop behind every aggregation strategy.

    Every point gets a code ``2 * slot + near``: its class's group, or the
    default slot after the groups, and whether it lies closer than its
    group's distance split. A past point is kept when its code's step
    divides the offset. ``default_step=None`` makes any unmapped class in
    the window an error. The output columns are views of one block, seven
    float64 rows and an int32 row of step tags (60 B a point), so keeping any
    one column keeps the whole block alive.
    """
    if not _is_whole(window) or window < 0:
        raise InvalidInputError(f"window must be a non-negative integer, got {window!r}")
    window, default = int(window), len(groups)
    # table[c + 1] is the far code of class c; both ends catch ids outside
    # the field once the lookup clips.
    table = np.full(LABEL_FIELD_SIZE + 2, 2 * default, dtype=np.intp)
    for slot, group in enumerate(groups):
        table[[c + 1 for c in group.classes]] = 2 * slot
    unmapped_step = INFINITE_STEP if default_step is None else default_step
    steps = np.array([[g.step, g.near_step()] for g in groups] + [[unmapped_step] * 2]).ravel()
    fits = steps <= np.iinfo(np.int32).max  # a wider step, or inf, gets tag 0 and must keep no point
    tags = np.where(fits, steps, 0).astype(np.int32)
    splits = [g.distance_split.threshold_m if g.distance_split else 0.0 for g in groups]
    thresholds = np.array(splits + [0.0]).repeat(2)
    uniform = bool((steps == steps[0]).all())

    # pass 1: the walk and its poses on this thread; then, on two threads, each walked
    # frame's (frame, pose into t, kept rows or None for all, step tags), or None
    def select(frame, pose):
        semantic = frame.labeled.semantic
        if default_step is None or (pose is not None and not uniform):
            code = np.take(table, np.add(semantic, 1, dtype=np.intp), mode="clip")  # 65535 + 1 in uint16 is 0
        if default_step is None and (code == 2 * default).any():
            missing = sorted(np.unique(semantic[code == 2 * default]).tolist())
            raise ConfigurationError(
                f"classes {missing} in frame {frame.index} are not assigned to "
                f"any group and the division has no default group"
            )
        if pose is None:
            return frame, None, None, 0
        keep = (t - frame.index) % steps == 0  # per code; the infinite step never divides
        if not keep.any():  # walked only for the unmapped-class check
            return None
        if (keep & ~fits).any():
            too_wide = steps[keep & ~fits][0]
            raise InvalidInputError(f"step {too_wide:.0f} samples frame {frame.index}; no int32 tag holds it")
        if uniform:
            return frame, pose, None, tags[0]
        if (keep & (thresholds > 0)).any():
            # range in the sweep's own sensor frame, once per frame, in norm's order and in float64
            x, y, z = frame.labeled.cloud.xyz.T.astype(np.float64, copy=False)
            code += np.sqrt(x * x + y * y + z * z) < thresholds[code]
        rows = None if keep.all() else np.flatnonzero(keep[code])
        if rows is None or rows.shape[0]:
            return frame, pose, rows, tags[code if rows is None else code[rows]]

    walk = _walk(frames, t, walked_steps(groups, default_step), window)
    picks = [pick for pick in _on_two_threads([partial(select, *step) for step in walk]) if pick]

    # pass 2: each part written once into its slice of one block; a helper
    # thread fills the other columns while this thread moves xyz
    starts = np.cumsum([0] + [f.count if rows is None else rows.shape[0] for f, _, rows, _ in picks]).tolist()
    block = np.empty((15, starts[-1]), np.int32)  # huge pages once it reaches numpy's 4 MB advice bound
    wide = block[:14].reshape(7, 2 * starts[-1]).view(np.float64)  # xyz, intensity, labels, source frames
    outs = (wide[:3].T, wide[3], *(row.view(np.int64) for row in wide[4:]), block[14])
    parts = [(slice(start, stop), *pick) for pick, start, stop in zip(picks, starts, starts[1:])]

    def move():
        for part, frame, pose, rows, _ in parts:
            xyz, dst = frame.labeled.cloud.xyz, outs[0][part]
            if rows is not None:  # per axis into a contiguous row
                for src_axis, dst_axis in zip(xyz.T, dst.T):
                    _take_into(src_axis, rows, dst_axis)
            if pose is None:  # the present sweep, as it is
                dst[...] = xyz
            else:  # moved straight into its slice, in place after np.take
                pose.apply(xyz if rows is None else dst, out=dst)

    _on_two_threads([move, partial(_fill_columns, parts, outs[1:])])
    xyz, intensity, semantic, instance, source_frame, source_step = outs
    labeled = _from_checked(LabeledCloud, _from_checked(PointCloud, xyz, intensity), semantic, instance)
    return _from_checked(AggregatedCloud, labeled, source_frame, source_step, t)


def aggregate_direct(frames: Sequence[SequenceFrame], t: int, window: int) -> AggregatedCloud:
    """Plain dense aggregation: every sweep in [t - window, t], no filtering."""
    return _aggregate(frames, t, window, (), 1)


def aggregate_stepped(
    frames: Sequence[SequenceFrame], t: int, window: int, step: int
) -> AggregatedCloud:
    """Uniform stepped aggregation of all classes: frames t - i*step."""
    step = _check_step(step)
    return _aggregate(frames, t, window, (), step)


def aggregate_fsa(
    frames: Sequence[SequenceFrame], t: int, division: GroupDivision
) -> AggregatedCloud:
    """Full flexible-step aggregation: present sweep plus every group's points.

    Classes are looked up on each source sweep's own labels and the kept
    rows are picked before the pose transform, so only they are moved.
    """
    return _aggregate(frames, t, division.window, division.groups, division.default_step)


# ---------------------------------------------------------------------------
# shipped divisions

# Editable single-scan baseline scores used to band classes into groups.
# These are rough validation-set numbers; edit them (or load a custom
# division file) to re-band.
DEFAULT_CLASS_SCORES: dict[int, float] = {
    1: 96.0,   # car
    2: 45.0,   # bicycle
    3: 82.0,   # motorcycle
    4: 70.0,   # truck
    5: 55.0,   # other-vehicle
    6: 72.0,   # person
    7: 75.0,   # bicyclist
    8: 30.0,   # motorcyclist
    9: 94.0,   # road
    10: 65.0,  # parking
    11: 82.5,  # sidewalk
    12: 28.0,  # other-ground
    13: 92.0,  # building
    14: 68.0,  # fence
    15: 90.0,  # vegetation
    16: 69.0,  # trunk
    17: 76.0,  # terrain
    18: 64.0,  # pole
    19: 66.0,  # traffic-sign
}

# Ground-like spread-out classes that dominate point counts; used when a
# division demotes large classes to a coarser step.
LARGE_SPREAD_CLASSES = frozenset({10, 11, 12, 17})


DIVISION_PRESET_NAMES = ("division1", "division2", "division3", "division4", "division5")


def division_preset(name: str, window: int = DEFAULT_WINDOW) -> GroupDivision:
    """Build one of the shipped divisions from ``DEFAULT_CLASS_SCORES``.

    Scores band the classes: easy (90 and up) takes the infinite step, mid
    (80 to 90) step 4 and hard step 2. division2 ranks the classes instead,
    six to a group. division3 promotes hard large-spread classes to step 4;
    division4 gives every large-spread class that is not easy its own step
    8; division5 is division3 with a 30 m distance split on each finite step.
    """
    scores = DEFAULT_CLASS_SCORES
    ranked = sorted(scores, key=lambda c: (-scores[c], c))

    def band(c):
        return 0 if scores[c] >= 90.0 else 1 if scores[c] >= 80.0 else 2

    def promoted(c):
        return 1 if band(c) == 2 and c in LARGE_SPREAD_CLASSES else band(c)

    # each preset: the step of each group, and the group that takes a class
    table = {
        "division1": ((INFINITE_STEP, 4, 2), band),
        "division2": ((INFINITE_STEP, 4, 2), lambda c: min(ranked.index(c) // 6, 2)),
        "division3": ((INFINITE_STEP, 4, 2), promoted),
        "division4": ((INFINITE_STEP, 4, 2, 8),
                      lambda c: 3 if band(c) > 0 and c in LARGE_SPREAD_CLASSES else band(c)),
        "division5": ((INFINITE_STEP, 4, 2), promoted),
    }
    if name not in table:
        raise ConfigurationError(
            f"unknown division {name!r}; valid presets: {', '.join(DIVISION_PRESET_NAMES)}"
        )
    steps, group_of = table[name]
    members = [[c for c in scores if group_of(c) == g] for g in range(len(steps))]
    split = DistanceSplit(threshold_m=30.0, near_step_multiplier=2) if name == "division5" else None
    groups = tuple(
        ClassGroup(frozenset(classes), step, None if step == INFINITE_STEP else split)
        for classes, step in zip(members, steps)
    )
    return GroupDivision(groups, window=window, name=name)


def _parse_step(raw):
    # inf / infinite name the infinite step; ClassGroup and GroupDivision check the rest
    if isinstance(raw, str) and raw.strip().lower() in {"inf", "infinite", ".inf"}:
        return INFINITE_STEP
    return raw


_split = _from_mapping(DistanceSplit, "distance_split")
_group = _from_mapping(ClassGroup, "group", classes=_list, step=_parse_step,
                       distance_split=lambda raw: None if raw is None else _split(raw))


def _groups(items) -> tuple[ClassGroup, ...]:
    if not isinstance(items, list):
        raise ConfigurationError(f"expected a 'groups' list, got {items!r}")
    return _entries(_group, items, "group", ConfigurationError)


_division = _from_mapping(GroupDivision, "top-level", groups=_groups, default_step=_parse_step, name=str)


def load_division(path) -> GroupDivision:
    """Read a division from YAML; the keys mirror the GroupDivision,
    ClassGroup and DistanceSplit fields (README, "Division YAML"), a step
    may be ``inf``, and ``name`` defaults to the file stem."""
    raw = _read_yaml(path, ConfigurationError)
    if isinstance(raw, Mapping):
        raw = {"name": Path(path).stem, **raw}
    try:
        return _division(raw)
    except ValueError as exc:  # ConfigurationError is a ValueError
        raise ConfigurationError(f"{path}: {exc}") from None


def resolve_division(spec: str, window: int | None = None) -> GroupDivision:
    """Accept a preset name or a path to a division file."""
    if spec in DIVISION_PRESET_NAMES:
        division = division_preset(spec)
    elif Path(spec).exists():
        division = load_division(spec)
    else:
        raise ConfigurationError(
            f"unknown division {spec!r}; valid presets: {', '.join(DIVISION_PRESET_NAMES)} "
            f"(or pass a path to a division file)"
        )
    if window is not None:
        division = division.with_window(window)
    return division
