"""SemanticKITTI-style sequence I/O plus a synthetic scene generator.

On-disk layout of a sequence directory::

    velodyne/000000.bin   little-endian float32 (x, y, z, intensity) quadruples
    labels/000000.label   little-endian uint32, low 16 bits semantic class,
                          high 16 bits instance id
    poses.txt             one row-major 3x4 matrix (12 decimals) per frame
    calib.txt             "Key: 12 values" lines; Tr is LiDAR-to-camera,
                          P2 carries the pinhole intrinsics
    times.txt             optional, one timestamp per frame

Poses in ``poses.txt`` follow the upstream convention (camera frame); the
loader conjugates them with Tr so every ``SequenceFrame.pose`` maps LiDAR
coordinates to a common world frame. The camera (P2, Tr and the size of the
images under image_2/) is loaded by ``imaging.load_camera_calib``.

Writing a sequence and rendering a synthetic scene go frame by frame on
``geometry._on_two_threads``, the runner aggregation uses: even frames on
the calling thread, odd ones on one helper, with the same bytes as one
thread. A helper calls numpy, constructors, ``compose`` and private helpers
only, never ``Pose.apply``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import FormatError, InvalidInputError, InvalidSpecError
from .geometry import LabeledCloud, Pose, PointCloud, _is_whole, _on_two_threads, _seeded_rng, compose, invert

FRAME_PERIOD_S = 0.1

POINT_RECORD_BYTES = 16  # four little-endian float32 per point
LABEL_RECORD_BYTES = 4
# Semantic ids fill the low 16 bits of a label record, instance ids the high 16.
LABEL_FIELD_SIZE = 1 << 16


def _integer(value) -> int:
    if not _is_whole(value):
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def _number(value) -> float:
    """The one number rule: a finite real number, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"must be a number, got {value!r}")
    if not math.isfinite(value):
        raise TypeError(f"must be finite, got {value!r}")
    return float(value)


def _list(value) -> list:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"must be a list, got {value!r}")
    return list(value)


def _vector(value) -> tuple[float, float, float]:
    if len(_list(value)) != 3:
        raise TypeError(f"must be a list of three numbers, got {value!r}")
    return tuple(map(_number, value))


def _label_id(value) -> int:
    if 0 <= _integer(value) < LABEL_FIELD_SIZE:
        return int(value)
    raise TypeError(f"must lie in the 16-bit label field [0, {LABEL_FIELD_SIZE - 1}], got {value!r}")


def _class_fractions(value) -> dict[int, float]:
    if not isinstance(value, Mapping) or not all(map(_is_whole, value)):
        raise TypeError(f"must map integer class ids to fractions, got {value!r}")
    return {_label_id(cid): _number(fraction) for cid, fraction in value.items()}


def _nested(kind, many: bool = False):
    """The rule of a nested spec field: a ``kind``, or with ``many`` a list of them, kept as a tuple."""
    def rule(value):
        if all(isinstance(item, kind) for item in (_list(value) if many else [value])):
            return tuple(value) if many else value
        raise TypeError(f"must be {'a list of ' if many else ''}{kind.__name__}, got {value!r}")
    return rule


def _check_fields(spec, error, **rules) -> None:
    """Each named field of a dataclass, however it was built, through its rule,
    the one a config file's key of that name follows; the field keeps the value
    the rule returns, and a failure is ``error`` naming the field."""
    for name, rule in rules.items():
        try:
            object.__setattr__(spec, name, rule(getattr(spec, name)))
        except TypeError as exc:
            raise error(f"{name} {exc}") from None


@dataclass(frozen=True)
class CameraCalib:
    """Pinhole intrinsics plus the LiDAR-to-camera extrinsic."""

    fx: float
    fy: float
    cx: float
    cy: float
    extrinsic: Pose
    width: int
    height: int

    def __post_init__(self):
        _check_fields(self, InvalidInputError, fx=_number, fy=_number, cx=_number, cy=_number,
                      width=_integer, height=_integer)
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidInputError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise InvalidInputError("image size must be positive")


@dataclass(frozen=True)
class SequenceFrame:
    """One LiDAR sweep: points and labels in sensor coordinates plus pose.

    ``file_pose`` keeps the verbatim poses.txt row the frame was loaded from
    so a rewrite reproduces the file byte for byte; frames built in memory
    leave it as None.
    """

    index: int
    labeled: LabeledCloud
    pose: Pose
    timestamp: float
    file_pose: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.labeled.count


def _read_bytes(path: Path) -> bytes:
    # Single choke point for per-frame payload reads; tests hook it to prove
    # that loading frame k never touches files of other frames.
    return Path(path).read_bytes()


def _parse_matrix_line(tokens: Sequence[str], where: str) -> np.ndarray:
    if len(tokens) != 12:
        raise FormatError(f"{where}: expected 12 values, got {len(tokens)}")
    try:
        vals = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None
    return np.array(vals, dtype=np.float64).reshape(3, 4)


def _parse_poses(path: Path) -> list[tuple[int, np.ndarray]]:
    """Each pose row of poses.txt with its line number; blank lines hold no row."""
    rows = [(lineno, _parse_matrix_line(line.split(), f"{path}:{lineno}"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1) if line.strip()]
    if not rows:
        raise FormatError(f"{path}: no pose rows")
    return rows


def _parse_calib(path: Path) -> dict[str, np.ndarray]:
    entries: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(path.read_text().splitlines()):
        if not line.strip():
            continue
        key, _, rest = line.partition(":")
        if not rest:
            raise FormatError(f"{path}:{lineno + 1}: expected 'Key: values'")
        entries[key.strip()] = _parse_matrix_line(
            rest.split(), f"{path}:{lineno + 1}"
        )
    if "Tr" not in entries:
        raise FormatError(f"{path}: missing Tr entry")
    return entries


def _parse_times(path: Path) -> list[float]:
    try:
        return [float(tok) for tok in path.read_text().split()]
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _decode_points(raw: bytes, path: Path) -> PointCloud:
    if len(raw) % POINT_RECORD_BYTES:
        raise FormatError(
            f"{path}: size {len(raw)} bytes is not a multiple of "
            f"{POINT_RECORD_BYTES}-byte point records"
        )
    data = np.ascontiguousarray(np.frombuffer(raw, dtype="<f4").reshape(-1, 4).T)  # float32, as the file
    try:
        return PointCloud(data[:3].T, data[3])
    except InvalidInputError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _decode_labels(raw: bytes, count: int, path: Path) -> tuple[np.ndarray, np.ndarray]:
    if len(raw) % LABEL_RECORD_BYTES:
        raise FormatError(
            f"{path}: size {len(raw)} bytes is not a multiple of "
            f"{LABEL_RECORD_BYTES}-byte label records"
        )
    packed = np.frombuffer(raw, dtype="<u4")
    if packed.shape[0] != count:
        raise FormatError(
            f"{path}: {packed.shape[0]} labels for {count} points"
        )
    fields = packed.view("<u2").reshape(-1, 2).T  # the low half of each little-endian record first
    return fields[0].copy(), fields[1].copy()


def sequence_length(seq_dir) -> int:
    """Number of frames: the non-blank lines of poses.txt, which ``load_sequence`` parses; reads no frame."""
    path = Path(seq_dir) / "poses.txt"
    count = sum(1 for line in path.read_text().splitlines() if line.strip())
    return count or len(_parse_poses(path))  # no row: the parser's error


def reference_frame(seq_dir, requested: int | None, count: int) -> int:
    """The reference frame t of a sequence of ``count`` frames (``sequence_length``): ``requested``,
    or the last frame when it is None. A frame outside the sequence names ``seq_dir``'s poses.txt."""
    if requested is None:
        return count - 1
    if not 0 <= requested < count:
        raise InvalidInputError(f"frame {requested} is outside the sequence of {count} frames "
                                f"(0..{count - 1}) in {Path(seq_dir) / 'poses.txt'}")
    return requested


def load_sequence(
    seq_dir,
    window: tuple[int, int] | None = None,
    *,
    indices: Iterable[int] | None = None,
) -> list[SequenceFrame]:
    """Load a sequence directory, lazily touching only the requested frames.

    ``window`` is an inclusive (first, last) frame-index pair; ``indices``
    names the frames one by one. Frames come back by ascending index, each
    once. Passing neither loads every frame listed in poses.txt.
    """
    count, read, _ = _frame_reader(seq_dir)
    if indices is not None:
        if window is not None:
            raise InvalidInputError("pass a window or frame indices, not both")
        wanted = sorted({operator.index(idx) for idx in indices})
        outside = [idx for idx in wanted if not 0 <= idx < count]
        if outside:
            raise InvalidInputError(
                f"frame index {outside[0]} outside sequence of {count} frames"
            )
    elif window is None:
        wanted = range(count)
    else:
        first, last = int(window[0]), int(window[1])
        if not (0 <= first <= last < count):
            raise InvalidInputError(
                f"window ({first}, {last}) outside sequence of {count} frames"
            )
        wanted = range(first, last + 1)
    return [read(idx) for idx in wanted]


def _frame_reader(seq_dir) -> tuple[int, Callable[[int], SequenceFrame], Pose]:
    """The frame count of a sequence directory, whose poses.txt, calib.txt and times.txt are
    parsed here, once; ``read(idx)``, which decodes frame idx with numpy, constructors and compose;
    and calib.txt's Tr."""
    seq_dir = Path(seq_dir)
    pose_rows = _parse_poses(seq_dir / "poses.txt")
    tr = _pose(_parse_calib(seq_dir / "calib.txt")["Tr"], f"{seq_dir / 'calib.txt'}: Tr")
    tr_inv = invert(tr)

    count = len(pose_rows)
    times_path = seq_dir / "times.txt"
    times = _parse_times(times_path) if times_path.exists() else None
    if times is not None and len(times) != count:
        raise FormatError(f"{times_path}: {len(times)} times for {count} frames in poses.txt")

    def read(idx: int) -> SequenceFrame:
        stem = f"{idx:06d}"
        bin_path = seq_dir / "velodyne" / f"{stem}.bin"
        label_path = seq_dir / "labels" / f"{stem}.label"
        try:
            cloud = _decode_points(_read_bytes(bin_path), bin_path)
            semantic, instance = _decode_labels(_read_bytes(label_path), cloud.count, label_path)
        except FileNotFoundError as exc:
            raise FormatError(f"{exc.filename}: no such file for frame {idx}") from None
        lineno, row = pose_rows[idx]
        pose = compose(compose(tr_inv, _pose(row, f"{seq_dir / 'poses.txt'}:{lineno}: frame {idx}")), tr)
        stamp = times[idx] if times is not None else idx * FRAME_PERIOD_S
        return SequenceFrame(index=idx, labeled=LabeledCloud(cloud, semantic, instance), pose=pose, timestamp=stamp,
                             file_pose=row)

    return count, read, tr


def _pose(row: np.ndarray, where: str) -> Pose:
    """A pose read from a file; a matrix Pose rejects is a FormatError that names ``where``."""
    try:
        return Pose(row)
    except InvalidInputError as exc:
        raise FormatError(f"{where}: {exc}") from None


def _format_matrix(mat: np.ndarray) -> str:
    # repr of a Python float is the shortest string that parses back exactly,
    # which is what makes rewrite-after-load byte-stable.
    return " ".join(repr(float(v)) for v in np.asarray(mat).reshape(-1))


@dataclass(frozen=True)
class CameraSpec:  # holds the one default camera size
    width: int = 64
    height: int = 48

    def __post_init__(self):
        _check_fields(self, InvalidSpecError, width=_integer, height=_integer)
        for key in ("width", "height"):
            if getattr(self, key) < 1:
                raise InvalidSpecError(f"{key} must be positive, got {getattr(self, key)}")

    def calib(self) -> CameraCalib:
        return default_camera_calib(self.width, self.height)


def default_camera_calib(width: int = CameraSpec.width, height: int = CameraSpec.height) -> CameraCalib:
    """Forward-looking camera with LiDAR axes permuted into optical axes."""
    rot = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    return CameraCalib(
        fx=float(width),
        fy=float(width),
        cx=width / 2.0,
        cy=height / 2.0,
        extrinsic=Pose.from_rotation_translation(rot, np.zeros(3)),
        width=width,
        height=height,
    )


def write_sequence(seq_dir, frames: Sequence[SequenceFrame], calib: CameraCalib | None = None) -> None:
    """Write frames in SemanticKITTI layout, re-based to file index 0.

    Each poses.txt row is derived from the frame's pose and ``calib``'s Tr;
    a frame loaded from disk keeps its verbatim row where that row agrees
    with the derived one (within 1e-9), so a rewrite beside the Tr it was
    read with reproduces poses.txt byte for byte.
    """
    if not frames:
        raise InvalidInputError("cannot write an empty sequence")
    ordered = sorted(frames, key=lambda f: f.index)
    for frame in ordered:  # before any file is written
        for name, ids in (("semantic", frame.labeled.semantic), ("instance", frame.labeled.instance)):
            lo, hi = (int(ids.min()), int(ids.max())) if ids.size else (0, 0)
            if lo < 0 or hi >= LABEL_FIELD_SIZE:
                raise InvalidInputError(
                    f"frame {frame.index}: {name} id {lo if lo < 0 else hi} lies outside "
                    f"the 16-bit label field [0, {LABEL_FIELD_SIZE - 1}]"
                )
    _write_frames(Path(seq_dir), len(ordered), ordered.__getitem__, default_camera_calib() if calib is None else calib)


def _write_frames(seq_dir: Path, count: int, frame_at, calib: CameraCalib) -> None:
    """Write ``frame_at(slot)`` as file index slot, for slots 0..count-1 on
    ``_on_two_threads``; then poses.txt, times.txt and calib.txt on this thread.
    The frames' label ids must fit 16 bits."""
    (seq_dir / "velodyne").mkdir(parents=True, exist_ok=True)
    (seq_dir / "labels").mkdir(parents=True, exist_ok=True)
    tr = calib.extrinsic
    tr_inv = invert(tr)

    def write(slot):  # the slot's .bin and .label; its poses.txt and times.txt lines
        frame, stem = frame_at(slot), f"{slot:06d}"
        cloud = frame.labeled.cloud
        data = np.empty((cloud.count, 4), dtype="<f4")
        data[:, :3] = cloud.xyz
        data[:, 3] = cloud.intensity
        (seq_dir / "velodyne" / f"{stem}.bin").write_bytes(data.tobytes())

        packed = frame.labeled.semantic.astype("<u4") | frame.labeled.instance.astype("<u4") << 16
        (seq_dir / "labels" / f"{stem}.label").write_bytes(packed.astype("<u4", copy=False).tobytes())

        # a loaded frame's verbatim row, unless it was read beside another Tr
        row = compose(compose(tr, frame.pose), tr_inv).matrix
        if frame.file_pose is not None and np.abs(frame.file_pose - row).max() <= 1e-9:
            row = frame.file_pose
        return _format_matrix(row), repr(float(frame.timestamp))

    pose_lines, time_lines = zip(*_on_two_threads([partial(write, slot) for slot in range(count)]))
    (seq_dir / "poses.txt").write_text("\n".join(pose_lines) + "\n")
    (seq_dir / "times.txt").write_text("\n".join(time_lines) + "\n")

    p2 = np.array(
        [
            [calib.fx, 0.0, calib.cx, 0.0],
            [0.0, calib.fy, calib.cy, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    calib_text = (
        f"P2: {_format_matrix(p2)}\n"
        f"Tr: {_format_matrix(tr.matrix)}\n"
    )
    (seq_dir / "calib.txt").write_text(calib_text)


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass(frozen=True)
class InstanceSpec:
    """One tracked object: a box of points with static or constant-velocity
    motion (meters per second, world frame)."""

    class_id: int
    points: int
    center: tuple[float, float, float]
    size: tuple[float, float, float] = (3.0, 1.8, 1.5)
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    instance_id: int | None = None

    def __post_init__(self):
        _check_fields(self, InvalidSpecError, class_id=_label_id, points=_integer, center=_vector, size=_vector,
                      velocity=_vector, instance_id=lambda iid: iid if iid is None else _label_id(iid))


@dataclass(frozen=True)
class EgoSpec:
    start: tuple[float, float, float] = (0.0, 0.0, 0.0)
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw_rate_deg: float = 0.0  # degrees per second

    def __post_init__(self):
        _check_fields(self, InvalidSpecError, start=_vector, velocity=_vector, yaw_rate_deg=_number)


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Deterministic scene: per-class planes, box instances, moving ego.

    The world is sampled once and re-observed from every frame, so frame k
    lists the same underlying world points (in the same row order) as frame
    j; only instance kinematics and the ego pose differ.
    """

    frame_count: int
    points_per_frame: int
    classes: Mapping[int, float]
    instances: tuple[InstanceSpec, ...] = ()
    ego: EgoSpec = field(default_factory=EgoSpec)
    camera: CameraSpec = field(default_factory=CameraSpec)
    seed: int = 0
    extent: float = 40.0

    def __post_init__(self):
        _check_fields(self, InvalidSpecError, frame_count=_integer, points_per_frame=_integer, seed=_integer,
                      extent=_number, classes=_class_fractions, instances=_nested(InstanceSpec, many=True),
                      ego=_nested(EgoSpec), camera=_nested(CameraSpec))
        if self.frame_count < 1:
            raise InvalidSpecError("frame_count must be >= 1")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        if self.points_per_frame < 0:
            raise InvalidSpecError("points_per_frame must be >= 0")
        if not self.extent >= 0:
            raise InvalidSpecError(f"extent must be non-negative, got {self.extent}")
        if not self.classes:
            raise InvalidSpecError("class histogram is empty")
        total = float(sum(self.classes.values()))
        if abs(total - 1.0) > 1e-9:
            raise InvalidSpecError(f"class fractions sum to {total}, expected 1")
        if any(f < 0 for f in self.classes.values()):
            raise InvalidSpecError("class fractions must be non-negative")
        quotas = class_point_quotas(self.classes, self.points_per_frame)
        used: dict[int, int] = {}
        seen_ids = set()
        for inst in self.instances:
            if inst.points < 1:
                raise InvalidSpecError("instances need at least one point")
            if inst.class_id not in self.classes:
                raise InvalidSpecError(f"instance class {inst.class_id} missing from histogram")
            used[inst.class_id] = used.get(inst.class_id, 0) + inst.points
            if inst.instance_id is not None:
                if inst.instance_id in seen_ids or inst.instance_id == 0:
                    raise InvalidSpecError(f"bad instance id {inst.instance_id}")
                seen_ids.add(inst.instance_id)
        for cid, n_used in used.items():
            if n_used > quotas[cid]:
                raise InvalidSpecError(f"class {cid}: instances need {n_used} points but the histogram allots "
                                       f"{quotas[cid]}")


def class_point_quotas(classes: Mapping[int, float], total: int) -> dict[int, int]:
    """Largest-remainder apportionment; off by at most one point per class."""
    ids = sorted(classes)
    exact = {cid: classes[cid] * total for cid in ids}
    quotas = {cid: int(math.floor(exact[cid])) for cid in ids}
    short = total - sum(quotas.values())
    by_remainder = sorted(ids, key=lambda cid: (quotas[cid] - exact[cid], cid))
    for cid in by_remainder[:short]:
        quotas[cid] += 1
    return quotas


def _ego_pose(ego: EgoSpec, frame: int) -> Pose:
    dt = frame * FRAME_PERIOD_S
    yaw = math.radians(ego.yaw_rate_deg) * dt
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    trans = np.asarray(ego.start, dtype=np.float64) + dt * np.asarray(
        ego.velocity, dtype=np.float64
    )
    return Pose.from_rotation_translation(rot, trans)


def _scene_renderer(spec: SyntheticSceneSpec) -> Callable[[int, np.ndarray], SequenceFrame]:
    """Draw every random number of the spec; return ``render(k, dst)``, which
    computes frame k's coordinates into the C-contiguous (3, points_per_frame)
    array ``dst`` and returns the frame. Renders share nothing they write, so
    they may run on several threads."""
    rng = _seeded_rng(seed=spec.seed)
    quotas = class_point_quotas(spec.classes, spec.points_per_frame)
    instance_budget: dict[int, int] = {}
    for inst in spec.instances:
        instance_budget[inst.class_id] = (
            instance_budget.get(inst.class_id, 0) + inst.points
        )

    world_chunks: list[np.ndarray] = []
    sem_chunks: list[np.ndarray] = []
    inst_chunks: list[np.ndarray] = []
    # Background surfaces: one horizontal plane per class, height keyed off
    # the class id so planes do not coincide.
    for cid in sorted(quotas):
        n_bg = quotas[cid] - instance_budget.get(cid, 0)
        if n_bg <= 0:
            continue
        xy = rng.uniform(-spec.extent, spec.extent, size=(n_bg, 2))
        z = np.full((n_bg, 1), 0.04 * (cid % 7))
        world_chunks.append(np.hstack([xy, z]))
        sem_chunks.append(np.full(n_bg, cid, dtype=np.int64))
        inst_chunks.append(np.zeros(n_bg, dtype=np.int64))

    moving: list[tuple[slice, np.ndarray]] = []  # rows + per-frame offset step
    auto_id = 1
    taken = {i.instance_id for i in spec.instances if i.instance_id is not None}
    offset = sum(chunk.shape[0] for chunk in world_chunks)
    for inst in spec.instances:
        size = np.asarray(inst.size, dtype=np.float64)
        base = np.asarray(inst.center, dtype=np.float64) + rng.uniform(
            -0.5, 0.5, size=(inst.points, 3)
        ) * size
        if inst.instance_id is None:
            while auto_id in taken:
                auto_id += 1
            iid = auto_id
            taken.add(iid)
        else:
            iid = inst.instance_id
        world_chunks.append(base)
        sem_chunks.append(np.full(inst.points, inst.class_id, dtype=np.int64))
        inst_chunks.append(np.full(inst.points, iid, dtype=np.int64))
        vel = np.asarray(inst.velocity, dtype=np.float64)
        if np.any(vel != 0.0):
            moving.append((slice(offset, offset + inst.points), vel))
        offset += inst.points

    if world_chunks:
        world0 = np.vstack(world_chunks)
        semantic = np.concatenate(sem_chunks)
        instance = np.concatenate(inst_chunks)
    else:
        world0 = np.zeros((0, 3))
        semantic = np.zeros(0, dtype=np.int64)
        instance = np.zeros(0, dtype=np.int64)
    intensity = rng.random(world0.shape[0])
    del world_chunks, sem_chunks, inst_chunks  # the renderer lives on: hold one copy of the world

    def render(k: int, dst: np.ndarray) -> SequenceFrame:
        dt = k * FRAME_PERIOD_S
        pose = _ego_pose(spec.ego, k)
        rel = world0 - pose.translation
        for rows, vel in moving:  # (world0 + offset) - t, rounded in that order, as the pinned bytes are
            rel[rows] = (world0[rows] + vel * dt) - pose.translation
        np.matmul(pose.rotation.T, rel.T, out=dst)  # (w - t) @ R, one gemm into the frame's rows
        return SequenceFrame(
            index=k,
            labeled=LabeledCloud(PointCloud(dst.T, intensity), semantic, instance),
            pose=pose,
            timestamp=dt,
        )

    return render


def generate_synthetic(spec: SyntheticSceneSpec) -> list[SequenceFrame]:
    """Render the spec into frames (sensor coordinates + LiDAR-to-world poses).

    Every frame's coordinates are one (3, N) row of a single (frames, 3, N)
    block, so keeping any one frame keeps the whole block alive. Frames are
    rendered on ``_on_two_threads``.
    """
    render, block = _scene_renderer(spec), np.empty((spec.frame_count, 3, spec.points_per_frame))
    return _on_two_threads([partial(render, k, block[k]) for k in range(spec.frame_count)])


def _from_mapping(spec_type, what: str, **nested):
    """Builder of ``spec_type`` from a mapping of its field names. It parses
    structure only: unknown and missing keys, and each key of ``nested``
    through its parser (a list, a nested mapping, a step string), whose
    TypeError, or error inside a nested mapping, the key prefixes;
    ``spec_type`` checks every value. An absent key keeps the dataclass default."""
    known = sorted(f.name for f in fields(spec_type))

    def build(raw):
        if not isinstance(raw, Mapping):
            raise InvalidSpecError(f"expected a mapping of {what} keys, got {raw!r}")
        unknown = sorted(str(key) for key in raw if key not in known)
        if unknown:
            raise InvalidSpecError(f"unknown {what} key {unknown[0]!r}; known keys: {', '.join(known)}")
        for f in fields(spec_type):
            if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
                raise InvalidSpecError(f"missing {what} key {f.name!r}")
        given = dict(raw)
        for key, value in raw.items():
            try:
                if key in nested:
                    given[key] = nested[key](value)
            except TypeError as exc:
                raise InvalidSpecError(f"{key} {exc}") from None
            except ValueError as exc:  # a list's entries name themselves
                if not isinstance(value, Mapping):
                    raise
                raise type(exc)(f"{key}: {exc}") from None
        return spec_type(**given)

    return build


def _read_yaml(path, error):
    import yaml  # only a config file needs it; keeps CLI start-up short

    try:
        return yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise error(f"{path}: not valid YAML ({exc})") from None


def _entries(build, items, what: str, error) -> tuple:
    """Every item of a list built in turn; an error names the item's place."""
    built = []
    for i, item in enumerate(items):
        try:
            built.append(build(item))
        except ValueError as exc:  # the toolkit's spec and config errors are ValueErrors
            raise error(f"{what} {i}: {exc}") from None
    return tuple(built)


_instance = _from_mapping(InstanceSpec, "instance")
_scene_spec = _from_mapping(
    SyntheticSceneSpec, "top-level", ego=_from_mapping(EgoSpec, "ego"), camera=_from_mapping(CameraSpec, "camera"),
    instances=lambda items: _entries(_instance, _list(items), "instance", InvalidSpecError),
)


def load_scene_spec(path) -> SyntheticSceneSpec:
    """Parse a YAML scene spec; keys mirror the SyntheticSceneSpec fields."""
    return scene_spec_from_mapping(_read_yaml(path, InvalidSpecError), where=str(path))


def scene_spec_from_mapping(raw: Mapping, where: str = "spec") -> SyntheticSceneSpec:
    """Build a scene spec from the keys of ``raw``; any error names ``where``."""
    try:
        return _scene_spec(raw)
    except ValueError as exc:
        raise InvalidSpecError(f"{where}: {exc}") from None


def corrupt_labels(frame: SequenceFrame, error_rate: float, seed: int) -> SequenceFrame:
    """Resample a fraction of semantic labels, mimicking model predictions.

    Exactly round(error_rate * N) points change, each to a class drawn
    uniformly from the other classes present in the frame. A frame with a
    single class present has nothing to resample to and is returned as-is.
    """
    if not (0.0 <= error_rate <= 1.0) or not math.isfinite(error_rate):
        raise InvalidInputError(f"error_rate {error_rate} outside [0, 1]")
    semantic = frame.labeled.semantic
    n = semantic.shape[0]
    n_corrupt = int(round(error_rate * n))
    present = np.unique(semantic)
    if n_corrupt == 0 or present.shape[0] < 2:
        return frame

    rng = _seeded_rng(seed=seed)
    chosen = rng.choice(n, size=n_corrupt, replace=False)
    new_semantic = semantic.copy()
    own_pos = np.searchsorted(present, semantic[chosen])
    draw = rng.integers(0, present.shape[0] - 1, size=n_corrupt)
    draw += (draw >= own_pos).astype(draw.dtype)  # skip the original class
    new_semantic[chosen] = present[draw]
    return replace(frame, labeled=LabeledCloud(frame.labeled.cloud, new_semantic, frame.labeled.instance))
