"""Rigid-body poses and point-cloud containers used by every pipeline stage.

All geometry computes in double precision; a cloud may hold a sequence
file's float32 and uint16 columns as read. Poses are stored exactly as KITTI
writes them: a row-major 3x4 block ``[R | t]`` mapping sensor coordinates
into the parent frame. A cloud's (N, 3) ``xyz`` is the ``.T`` view of a
C-contiguous (3, N) array, one contiguous row per axis; files stay row-major.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInputError

# Construction is validated a bit looser than the internal invariant because
# pose files carry print rounding. Matrices that already satisfy the strict
# bound are kept verbatim; polar projection would otherwise move every entry
# by ~1 ulp and break byte-exact file round trips.
ORTHONORMAL_CONSTRUCT_TOL = 1e-6
ORTHONORMAL_STRICT_TOL = 1e-9
_APPLY_BLOCK = 16384  # rows per Pose.apply block; see there


def _as(values, dtype, kept=None) -> np.ndarray:
    """``values`` as an array of ``dtype``, or as given when they hold ``kept`` (a file's float32, uint16)."""
    return np.asarray(values, dtype=kept if kept is not None and getattr(values, "dtype", None) == kept else dtype)


def _as_points(values, dtype=np.float64, what: str = "points", kept=None) -> np.ndarray:
    """``values`` as an (N, 3) array of ``dtype`` (or ``kept``, see ``_as``); any other shape is rejected."""
    arr = _as(values, dtype, kept)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidInputError(f"{what} must have shape (N, 3), got {arr.shape}")
    return arr


def _orthonormality_error(rot: np.ndarray) -> float:
    return float(np.abs(rot.T @ rot - np.eye(3)).max())


@dataclass(frozen=True)
class Pose:
    """Immutable rigid transform, stored as the row-major 3x4 ``[R | t]``."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.float64)
        if mat.shape != (3, 4):
            raise InvalidInputError(f"pose matrix must be 3x4, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise InvalidInputError("pose matrix contains non-finite entries")
        rot = mat[:, :3]
        err = _orthonormality_error(rot)
        if err > ORTHONORMAL_CONSTRUCT_TOL:
            raise InvalidInputError(
                f"rotation block is not orthonormal (|R^T R - I| = {err:.3e})"
            )
        if np.linalg.det(rot) < 0.0:
            raise InvalidInputError("rotation block has negative determinant")
        if err > ORTHONORMAL_STRICT_TOL:
            # Polar projection: nearest orthonormal matrix in Frobenius norm.
            u, _, vt = np.linalg.svd(rot)
            mat = np.hstack([u @ vt, mat[:, 3:4]])
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def rotation(self) -> np.ndarray:
        return self.matrix[:, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[:, 3]

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.hstack([np.eye(3), np.zeros((3, 1))]))

    @classmethod
    def from_rotation_translation(cls, rotation, translation) -> "Pose":
        rotation = np.asarray(rotation, dtype=np.float64).reshape(3, 3)
        translation = np.asarray(translation, dtype=np.float64).reshape(3, 1)
        return cls(np.hstack([rotation, translation]))

    def apply(self, xyz: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transform an (N, 3) coordinate array into the parent frame.

        Each axis is a row of ``xyz.T``, read in place, and lands in a row of
        ``out.T`` (contiguous when column-stored; any layout gives the same
        bits). Rows go in blocks of ``_APPLY_BLOCK`` (16,384), and each axis of
        a block's (3, B) result is accumulated as ``((r0*x + r1*y) + r2*z) + t``,
        never a matmul (BLAS sums in a shape-dependent order), so no batching
        changes a row's bits. A block is computed in full before it is written
        to ``out`` (new and column-stored when None; float64 of ``xyz``'s
        shape), so ``out`` may be ``xyz`` itself. Float32 ``xyz`` is read as
        it is, each axis of a block widened into one reused float64 row (faster
        than the ufunc's own cast), so it moves as its float64 copy would.
        """
        xyz = _as_points(xyz, kept=np.float32)
        if out is None:
            out = np.empty((3, xyz.shape[0])).T
        elif out.dtype != np.float64 or out.shape != xyz.shape:
            raise InvalidInputError(f"out must be float64 of shape {xyz.shape}, got {out.dtype} {out.shape}")
        rot, trans, src, dst = self.rotation, self.translation[:, None], xyz.T, out.T
        acc, term = np.empty((2, 3, min(xyz.shape[0], _APPLY_BLOCK)))  # one allocation: glibc reuses it
        wide = np.empty(acc.shape[1]) if xyz.dtype == np.float32 else None

        def f64(axis):  # each product reads the row before the next axis is widened into it
            if wide is not None:
                wide[: axis.shape[0]] = axis
            return axis if wide is None else wide[: axis.shape[0]]

        for lo in range(0, xyz.shape[0], _APPLY_BLOCK):
            x, y, z = src[:, lo : lo + _APPLY_BLOCK]
            acc, term = acc[:, : x.shape[0]], term[:, : x.shape[0]]  # short only for the last block
            np.multiply(rot[:, 0:1], f64(x), out=acc)
            acc += np.multiply(rot[:, 1:2], f64(y), out=term)
            acc += np.multiply(rot[:, 2:3], f64(z), out=term)
            acc += trans
            dst[:, lo : lo + x.shape[0]] = acc
        return out


def compose(outer: Pose, inner: Pose) -> Pose:
    """Pose mapping x -> outer(inner(x))."""
    rot = outer.rotation @ inner.rotation
    trans = outer.rotation @ inner.translation + outer.translation
    return Pose.from_rotation_translation(rot, trans)


def invert(pose: Pose) -> Pose:
    rot = pose.rotation.T
    return Pose.from_rotation_translation(rot, -rot @ pose.translation)


def relative_pose(target: Pose, source: Pose) -> Pose:
    """Transform from ``source``'s frame into ``target``'s frame.

    Both arguments must be poses into a common parent (typically world), so
    the result is ``target^-1 . source``.
    """
    return compose(invert(target), source)


@dataclass(frozen=True)
class PointCloud:
    """Immutable point set: (N, 3) column-stored coordinates plus intensity, float32 (as read) or float64."""

    xyz: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        xyz = np.ascontiguousarray(_as_points(self.xyz, kept=np.float32).T).T  # copies only row-major input
        intensity = _as(self.intensity, np.float64, np.float32).reshape(-1)
        if intensity.shape[0] != xyz.shape[0]:
            raise InvalidInputError(
                f"intensity length {intensity.shape[0]} != point count {xyz.shape[0]}"
            )
        if not np.isfinite(xyz).all():
            raise InvalidInputError("point coordinates contain non-finite values")
        if intensity.size and (
            not np.isfinite(intensity).all()
            or intensity.min() < 0.0
            or intensity.max() > 1.0
        ):
            raise InvalidInputError("intensity values must lie in [0, 1]")
        xyz.flags.writeable = False
        intensity.flags.writeable = False
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "intensity", intensity)

    @property
    def count(self) -> int:
        return self.xyz.shape[0]


@dataclass(frozen=True)
class LabeledCloud:
    """Point cloud plus semantic class and instance id (0 = none) per point, uint16 (as read) or int64."""

    cloud: PointCloud
    semantic: np.ndarray
    instance: np.ndarray

    def __post_init__(self):
        semantic = _as(self.semantic, np.int64, np.uint16).reshape(-1)
        instance = _as(self.instance, np.int64, np.uint16).reshape(-1)
        if semantic.shape[0] != self.cloud.count or instance.shape[0] != self.cloud.count:
            raise InvalidInputError(
                f"label lengths ({semantic.shape[0]}, {instance.shape[0]}) "
                f"!= point count {self.cloud.count}"
            )
        semantic.flags.writeable = False
        instance.flags.writeable = False
        object.__setattr__(self, "semantic", semantic)
        object.__setattr__(self, "instance", instance)

    @property
    def count(self) -> int:
        return self.cloud.count


def _from_checked(cls, *values):
    """``cls(*values)`` with arrays made read-only, skipping ``__post_init__``'s checks."""
    obj = object.__new__(cls)
    for field, value in zip(fields(cls), values, strict=True):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, field.name, value)
    return obj


def _is_whole(value) -> bool:
    """The one integer rule: a finite integral number, and not a bool."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value) and int(value) == value


def _seeded_rng(**seeds) -> np.random.Generator:
    """``np.random.default_rng`` of the named seed, or seeds in order; one that breaks the
    integer rule or is negative is named."""
    for name, value in seeds.items():
        if not _is_whole(value):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise InvalidInputError(f"{name} must be >= 0, got {value}")
    return np.random.default_rng(tuple(map(int, seeds.values())))  # (s,) draws as s does


def _on_two_threads(calls: list) -> list:
    """Call ``calls``, even positions in order on this thread and odd ones on one helper; return
    the results in order. A thread stops at its first error; the lowest-placed one is raised."""
    results, errors = [None] * len(calls), {}

    def run(first):
        try:
            for i in range(first, len(calls), 2):
                results[i] = calls[i]()
        except BaseException as exc:  # re-raised on the calling thread
            errors[i] = exc

    helper = threading.Thread(target=run, args=(1,))
    helper.start()
    run(0)
    helper.join()
    if errors:
        raise errors[min(errors)]
    return results
