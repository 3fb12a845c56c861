"""Output checks and digests, run outside the timed region.

Every check tests an invariant any correct version of ``lidarseq`` keeps,
never a stored count, so changes that legitimately move counts (a label-space
fix, say) do not fail operations. Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MIX = np.uint64(0x9E3779B97F4A7C15)


def digest_arrays(arrays: dict[str, np.ndarray]) -> dict[str, str]:
    """Hex digest per named array over dtype, shape and raw bytes."""
    out = {}
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h = hashlib.sha256()
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.data)
        out[name] = h.hexdigest()
    return out


def combine(digests) -> str:
    h = hashlib.sha256()
    for item in digests:
        h.update(item.encode())
    return h.hexdigest()


def _row_columns(agg) -> list[np.ndarray]:
    """Every per-row value of an aggregated cloud except the sampling step."""
    labeled = agg.labeled
    xyz = labeled.cloud.xyz
    return [
        np.ascontiguousarray(xyz[:, 0]), np.ascontiguousarray(xyz[:, 1]),
        np.ascontiguousarray(xyz[:, 2]), labeled.cloud.intensity,
        labeled.semantic, labeled.instance, agg.source_frame,
    ]


def _row_hash(columns: list[np.ndarray]) -> np.ndarray:
    h = np.zeros(columns[0].shape[0], dtype=np.uint64)
    with np.errstate(over="ignore"):
        for col in columns:
            h = (h ^ np.ascontiguousarray(col).view(np.uint64)) * _MIX
            h ^= h >> np.uint64(29)
    return h


class RowIndex:
    """Rows of a reference cloud bucketed by a 64-bit hash of their bits."""

    def __init__(self, agg):
        self.columns = _row_columns(agg)
        hashes = _row_hash(self.columns)
        self.order = np.argsort(hashes)
        self.sorted = hashes[self.order]

    def missing_rows(self, agg) -> int:
        """Rows of ``agg`` not matched, as a multiset, by reference rows.

        A row matches only when every column is bitwise equal, so a hash
        collision can produce a false failure but never a false pass of a
        row that is absent.
        """
        columns = _row_columns(agg)
        keys, first, counts = np.unique(_row_hash(columns), return_index=True, return_counts=True)
        lo = np.searchsorted(self.sorted, keys, side="left")
        hi = np.searchsorted(self.sorted, keys, side="right")
        short = np.maximum(counts - (hi - lo), 0).sum()
        found = hi > lo
        ref_rows = self.order[np.minimum(lo, self.sorted.shape[0] - 1)]
        equal = np.ones(keys.shape[0], dtype=bool)
        for mine, ref in zip(columns, self.columns):
            equal &= mine[first].view(np.uint64) == ref[ref_rows].view(np.uint64)
        mismatched = counts[found & ~equal].sum()
        return int(short + mismatched)


def present_frame_whole(agg, frame) -> list[str]:
    rows = agg.source_step == 0
    labeled = agg.labeled
    same = (
        int(rows.sum()) == frame.count
        and bool((agg.source_frame[rows] == frame.index).all())
        and np.array_equal(labeled.cloud.xyz[rows], frame.labeled.cloud.xyz)
        and np.array_equal(labeled.cloud.intensity[rows], frame.labeled.cloud.intensity)
        and np.array_equal(labeled.semantic[rows], frame.labeled.semantic)
        and np.array_equal(labeled.instance[rows], frame.labeled.instance)
    )
    return [] if same else [f"present frame {frame.index} is not included whole"]


def switch_only_moves_instance(before, after, instance_id: int) -> list[str]:
    """SMSA may rewrite the instance's coordinates and class, nothing else."""
    others = before.labeled.instance != instance_id
    unchanged = (
        np.array_equal(before.labeled.cloud.xyz[others], after.labeled.cloud.xyz[others])
        and np.array_equal(before.labeled.semantic[others], after.labeled.semantic[others])
        and np.array_equal(before.labeled.cloud.intensity, after.labeled.cloud.intensity)
        and np.array_equal(before.labeled.instance, after.labeled.instance)
        and np.array_equal(before.source_frame, after.source_frame)
        and np.array_equal(before.source_step, after.source_step)
    )
    return [] if unchanged else [f"switch of instance {instance_id} changed other rows"]


def _pack(*coord_arrays: np.ndarray) -> list[np.ndarray]:
    """One exact int64 key per integer voxel coordinate, shared across arrays.

    Mixed-radix packing over the joint bounding box; order of keys matches
    the canonical (x, then y, then z) order of the coordinates.
    """
    joint = np.concatenate([np.asarray(c, dtype=np.int64).reshape(-1, 3) for c in coord_arrays])
    low = joint.min(axis=0) if joint.size else np.zeros(3, dtype=np.int64)
    span = (joint.max(axis=0) - low + 1) if joint.size else np.ones(3, dtype=np.int64)
    if float(span[0]) * float(span[1]) * float(span[2]) >= 2.0**62:
        raise ValueError("voxel coordinates span too wide a box to pack")
    return [
        ((c[:, 0] - low[0]) * span[1] + (c[:, 1] - low[1])) * span[2] + (c[:, 2] - low[2])
        for c in (np.asarray(a, dtype=np.int64).reshape(-1, 3) for a in coord_arrays)
    ]


def voxel_count_matches_points(vmap, xyz: np.ndarray) -> list[str]:
    cells = np.floor((xyz - vmap.origin) / vmap.voxel_size).astype(np.int64)
    distinct = np.unique(cells, axis=0).shape[0]
    if distinct == vmap.count:
        return []
    return [f"scale-0 map has {vmap.count} voxels for {distinct} distinct cells"]


def selection_is_intersection(selection, student, teacher) -> list[str]:
    s_keys, t_keys = _pack(student.coords, teacher.coords)
    # intersect1d returns the common keys ascending, i.e. in canonical order
    _, s_idx, t_idx = np.intersect1d(s_keys, t_keys, assume_unique=True, return_indices=True)
    same = (
        np.array_equal(selection.student_index, s_idx)
        and np.array_equal(selection.teacher_index, t_idx)
        and np.array_equal(selection.coords, student.coords[s_idx])
    )
    return [] if same else ["shared_selection differs from the coordinate-set intersection"]


def loss_matches_selection(loss: float, selection, student, teacher) -> list[str]:
    if selection.count == 0:
        expected = 0.0
    else:
        diff = student.features[selection.student_index] - teacher.features[selection.teacher_index]
        expected = float(np.mean(np.sqrt((diff * diff).sum(axis=1))))
    if abs(loss - expected) <= 1e-12 * max(abs(expected), 1e-300):
        return []
    return [f"distill_loss {loss!r} differs from recomputed {expected!r}"]

