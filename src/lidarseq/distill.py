"""Masked feature-distillation arithmetic over sparse voxel maps.

A student map and a teacher map generally occupy different voxel sets, so the
loss is computed only on their intersection: select the rows whose coordinates
appear in both maps, take per-voxel feature differences, and average the
Euclidean norms. Pure forward arithmetic, no gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .voxels import VoxelFeatureMap

__all__ = [
    "SharedVoxelSelection",
    "shared_selection",
    "distill_loss",
]


@dataclass(frozen=True)
class SharedVoxelSelection:
    """Rows of two voxel maps that sit on the same coordinates.

    coords ascend in the canonical voxel order; student_index and
    teacher_index are parallel row indices into the respective maps.
    Only ``shared_selection`` builds one, from fresh arrays it freezes.
    """

    coords: np.ndarray
    student_index: np.ndarray
    teacher_index: np.ndarray

    def __post_init__(self):
        for arr in (self.coords, self.student_index, self.teacher_index):
            arr.setflags(write=False)

    @property
    def count(self) -> int:
        return self.coords.shape[0]


def _check_same_grid(student: VoxelFeatureMap, teacher: VoxelFeatureMap) -> None:
    if student.voxel_size != teacher.voxel_size:
        raise ConfigurationError(
            f"voxel size mismatch: {student.voxel_size} vs {teacher.voxel_size}"
        )
    if not np.array_equal(student.origin, teacher.origin):
        raise ConfigurationError("voxel grid origins differ")
    if student.scale_level != teacher.scale_level:
        raise ConfigurationError(
            f"scale level mismatch: {student.scale_level} vs {teacher.scale_level}"
        )


def shared_selection(
    student: VoxelFeatureMap, teacher: VoxelFeatureMap
) -> SharedVoxelSelection:
    """Intersect the coordinate sets of two maps on the same grid.

    Returns row indices in ascending coordinate order. Maps with different
    voxel size, origin, or scale level do not share a grid and are rejected.
    """
    _check_same_grid(student, teacher)
    rows_t = teacher.rows(student.coords)
    rows_s = np.flatnonzero(rows_t >= 0)
    return SharedVoxelSelection(student.coords[rows_s], rows_s, rows_t[rows_s])


def distill_loss(
    student: VoxelFeatureMap,
    teacher: VoxelFeatureMap,
    mode: str = "mean",
) -> float:
    """L2 feature-matching loss over voxels present in both maps.

    mode "mean" averages the per-voxel Euclidean norm of the feature
    difference; "frobenius" instead takes the matrix norm of the stacked
    difference. Either way an empty intersection yields 0.0: heavily
    diverged aggregations are degenerate, not an error.
    """
    if student.width != teacher.width:
        raise ConfigurationError(
            f"feature width mismatch: {student.width} vs {teacher.width}"
        )
    if mode not in ("mean", "frobenius"):
        raise ConfigurationError(f"unknown distillation mode {mode!r}")
    selection = shared_selection(student, teacher)
    if selection.count == 0:
        return 0.0
    diff = student.features[selection.student_index] - teacher.features[selection.teacher_index]
    if mode == "frobenius":
        return float(np.linalg.norm(diff))
    return float(np.mean(np.linalg.norm(diff, axis=1)))

