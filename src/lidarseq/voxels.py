"""Sparse voxel feature maps: quantization, pooling, gathering, fixed kernels.

A map stores only occupied voxels as integer coordinates plus one feature
row each. Coordinates follow ``floor((p - origin) / voxel_size)`` and are
kept in ascending lexicographic order (x, then y, then z), which makes set
operations between maps deterministic.

Every voxel lookup (trilinear gather, kernel taps, shared-voxel selection)
goes through one batched index, ``VoxelFeatureMap.rows``. Each map packs its
coordinates into mixed-radix int64 keys over its own bounding box, so the
keys ascend in the canonical order and one ``np.searchsorted`` answers a
whole batch. A queried coordinate outside the box is a miss and is never
packed. A map whose box volume does not fit the keys (2**62 voxels or more)
is rejected when it is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, InvalidInputError

DEFAULT_VOXEL_SIZE = 0.05


@dataclass(frozen=True)
class VoxelFeatureMap:
    """Occupied voxel coordinates with one feature vector per voxel."""

    voxel_size: float
    origin: np.ndarray
    coords: np.ndarray    # (V, 3) int64, unique, ascending
    features: np.ndarray  # (V, C) float64
    scale_level: int = 0

    def __post_init__(self):
        if not (self.voxel_size > 0):
            raise InvalidInputError(f"voxel_size must be positive, got {self.voxel_size}")
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        coords = np.asarray(self.coords, dtype=np.int64).reshape(-1, 3)
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != coords.shape[0]:
            raise InvalidInputError(
                f"features shape {features.shape} does not match {coords.shape[0]} voxels"
            )
        if not np.isfinite(features).all():
            raise InvalidInputError("voxel features contain non-finite values")
        if coords.shape[0]:
            lo, hi = coords.min(axis=0), coords.max(axis=0)
        else:  # an empty box: every query misses
            lo, hi = np.zeros(3, np.int64), np.full(3, -1, np.int64)
        # Keys run up to the box volume. It is computed in Python ints, so a
        # volume past int64 is caught here instead of wrapping.
        span = [h - l + 1 for h, l in zip(hi.tolist(), lo.tolist())]
        if span[0] * span[1] * span[2] >= 1 << 62:
            raise InvalidInputError(
                f"voxel coordinates span a {span[0]} x {span[1]} x {span[2]} box, "
                f"too large to index (volume must stay below 2**62)"
            )
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        object.__setattr__(self, "_radix", np.array([span[1] * span[2], span[2], 1], np.int64))
        keys = (coords - lo) @ self._radix  # mixed radix: ascends with coords
        order = np.argsort(keys, kind="stable")
        coords, features, keys = coords[order], features[order], keys[order]
        if (np.diff(keys) == 0).any():
            raise InvalidInputError("duplicate voxel coordinates")
        for arr in (origin, coords, features, keys):
            arr.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "_keys", keys)

    def rows(self, coords) -> np.ndarray:
        """Row of each (M, 3) coordinate in this map, or -1 where unoccupied."""
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        out = np.full(coords.shape[0], -1, dtype=np.int64)
        # only in-box coordinates are packed: an outside one could alias a key
        inside = (coords >= self._lo) & (coords <= self._hi)
        inside = inside[:, 0] & inside[:, 1] & inside[:, 2]
        keys = (coords[inside] - self._lo) @ self._radix
        pos = np.minimum(np.searchsorted(self._keys, keys), self.count - 1)
        out[inside] = np.where(self._keys[pos] == keys, pos, -1)
        return out

    @property
    def count(self) -> int:
        return self.coords.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]


def _mean_reduce(coords: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate coordinates, averaging their feature rows."""
    if coords.shape[0] == 0:
        return coords, features
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    coords = coords[order]
    features = features[order]
    new_group = np.ones(coords.shape[0], dtype=bool)
    new_group[1:] = np.any(np.diff(coords, axis=0) != 0, axis=1)
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, coords.shape[0]))
    summed = np.add.reduceat(features, starts, axis=0)
    return coords[starts], summed / counts[:, None]


def voxelize(
    xyz: np.ndarray,
    features: np.ndarray,
    voxel_size: float = DEFAULT_VOXEL_SIZE,
    origin=(0.0, 0.0, 0.0),
) -> VoxelFeatureMap:
    """Quantize points to voxels; co-located feature rows are averaged."""
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    if features.shape[0] != xyz.shape[0]:
        raise InvalidInputError(
            f"{features.shape[0]} feature rows for {xyz.shape[0]} points"
        )
    if not np.isfinite(xyz).all():
        raise InvalidInputError("cannot voxelize non-finite coordinates")
    if not (voxel_size > 0):
        raise InvalidInputError(f"voxel_size must be positive, got {voxel_size}")
    origin_arr = np.asarray(origin, dtype=np.float64).reshape(3)
    coords = np.floor((xyz - origin_arr) / voxel_size).astype(np.int64)
    coords, pooled = _mean_reduce(coords, features)
    return VoxelFeatureMap(voxel_size, origin_arr, coords, pooled)


def downsample(vmap: VoxelFeatureMap) -> VoxelFeatureMap:
    """Halve the resolution: floor-divide coordinates by two, average features."""
    coords, pooled = _mean_reduce(vmap.coords // 2, vmap.features)
    return VoxelFeatureMap(
        vmap.voxel_size * 2.0, vmap.origin, coords, pooled, vmap.scale_level + 1
    )


_CORNERS = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int64)


def gather_trilinear(vmap: VoxelFeatureMap, query_xyz: np.ndarray) -> np.ndarray:
    """Sample features at arbitrary points.

    Standard trilinear weights over the 8 voxel centers around each query,
    renormalized over the occupied ones; a query with no occupied neighbor
    (or only zero-weight ones) yields the zero vector.
    """
    query_xyz = np.asarray(query_xyz, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(query_xyz).all():
        raise InvalidInputError("query points contain non-finite values")
    m = query_xyz.shape[0]
    out = np.zeros((m, vmap.width))
    # Continuous position in "center units": voxel center c sits at u = c.
    u = (query_xyz - vmap.origin) / vmap.voxel_size - 0.5
    base = np.floor(u).astype(np.int64)
    frac = u - base

    weight_sum = np.zeros(m)
    for corner in _CORNERS:
        w = np.ones(m)
        for axis in range(3):
            w = w * (frac[:, axis] if corner[axis] else 1.0 - frac[:, axis])
        rows = vmap.rows(base + corner)
        found = rows >= 0
        if not found.any():
            continue
        out[found] += w[found, None] * vmap.features[rows[found]]
        weight_sum[found] += w[found]
    occupied = weight_sum > 0.0
    out[occupied] /= weight_sum[occupied, None]
    out[~occupied] = 0.0
    return out


def seeded_kernel(width: int, seed: int) -> np.ndarray:
    """Deterministic dense 3x3x3 kernel standing in for learned weights."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, 3, 3, width, width)) / np.sqrt(27.0 * width)


def apply_fixed_kernel(vmap: VoxelFeatureMap, kernel: np.ndarray) -> VoxelFeatureMap:
    """Submanifold 3x3x3 convolution: outputs exactly at the occupied voxels.

    ``kernel[dx+1, dy+1, dz+1]`` is the (C_out, C_in) matrix applied to the
    neighbor at ``coord + (dx, dy, dz)``; missing neighbors contribute
    nothing. ``seeded_kernel`` derives one from a seed.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape[:3] != (3, 3, 3) or kernel.ndim != 5:
        raise ConfigurationError(f"kernel must be (3, 3, 3, C_out, C_in), got {kernel.shape}")
    if kernel.shape[4] != vmap.width:
        raise ConfigurationError(
            f"kernel input width {kernel.shape[4]} != map width {vmap.width}"
        )
    out = np.zeros((vmap.count, kernel.shape[3]))
    for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3):
        tap = kernel[dx + 1, dy + 1, dz + 1]
        rows = vmap.rows(vmap.coords + np.array([dx, dy, dz], dtype=np.int64))
        found = rows >= 0
        if found.any():
            out[found] += vmap.features[rows[found]] @ tap.T
    return VoxelFeatureMap(vmap.voxel_size, vmap.origin, vmap.coords, out, vmap.scale_level)


def save_voxel_maps(path, maps) -> None:
    """Serialize one or more maps into a single .npz archive."""
    maps = list(maps)
    arrays: dict[str, np.ndarray] = {"map_count": np.array(len(maps))}
    for k, vmap in enumerate(maps):
        arrays[f"scale{k}_coords"] = vmap.coords
        arrays[f"scale{k}_features"] = vmap.features
        arrays[f"scale{k}_meta"] = np.array(
            [vmap.voxel_size, *vmap.origin, float(vmap.scale_level)]
        )
    np.savez(path, **arrays)


def load_voxel_maps(path) -> list[VoxelFeatureMap]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        with np.load(path) as data:
            count = int(data["map_count"])
            if count < 1:
                raise ValueError(f"map_count is {count}")
            maps = []
            for k in range(count):
                meta = data[f"scale{k}_meta"].reshape(-1)
                if meta.size != 5:
                    raise ValueError(f"scale{k}_meta holds {meta.size} values, not 5")
                maps.append(
                    VoxelFeatureMap(
                        voxel_size=float(meta[0]),
                        origin=meta[1:4],
                        coords=data[f"scale{k}_coords"],
                        features=data[f"scale{k}_features"],
                        scale_level=int(meta[4]),
                    )
                )
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise FormatError(f"{path}: not a voxel map archive ({exc})") from None
    return maps
