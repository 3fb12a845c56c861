"""Sparse voxel feature maps: quantization, pooling, gathering, fixed kernels.

A map stores only occupied voxels as integer coordinates plus one feature
row each. Coordinates follow ``floor((p - origin) / voxel_size)`` and are
kept in ascending lexicographic order (x, then y, then z), which makes set
operations between maps deterministic.

Every map is made by ``_build``: it packs the coordinates into mixed-radix
int64 keys over their bounding box (the keys ascend in the canonical order),
stable-sorts them once, and averages rows that share a key (voxelize,
downsample) or rejects them (the constructor). The kernel keeps its input's
coordinates, keys and box. Lookups (gather, kernel taps, shared voxels) are
one ``np.searchsorted`` per batch in ``VoxelFeatureMap.rows``; coordinates
outside the box miss unpacked. A box of 2**62 voxels or more is rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, InvalidInputError
from .geometry import _as_points, _from_checked

DEFAULT_VOXEL_SIZE = 0.05


@dataclass(frozen=True)
class VoxelFeatureMap:
    """Occupied voxel coordinates with one feature vector per voxel."""

    voxel_size: float
    origin: np.ndarray
    coords: np.ndarray    # (V, 3) int64, unique, ascending
    features: np.ndarray  # (V, C) float64
    scale_level: int = 0
    _index: tuple = field(init=False, repr=False, compare=False)  # box lo, hi, radix, keys

    def __post_init__(self):
        if not (self.voxel_size > 0):
            raise InvalidInputError(f"voxel_size must be positive, got {self.voxel_size}")
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        coords = _as_points(self.coords, np.int64, "voxel coordinates")
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != coords.shape[0]:
            raise InvalidInputError(
                f"features shape {features.shape} does not match {coords.shape[0]} voxels"
            )
        built = _build(self.voxel_size, origin, coords, features, self.scale_level)
        for f in fields(self):
            object.__setattr__(self, f.name, getattr(built, f.name))

    def rows(self, coords) -> np.ndarray:
        """Row of each (M, 3) coordinate in this map, or -1 where unoccupied."""
        lo, hi, radix, stored = self._index
        coords = _as_points(coords, np.int64, "voxel coordinates")
        out = np.full(coords.shape[0], -1, dtype=np.int64)
        # only in-box coordinates are packed: an outside one could alias a key
        inside = (coords >= lo) & (coords <= hi)
        inside = inside[:, 0] & inside[:, 1] & inside[:, 2]
        keys = (coords[inside] - lo) @ radix
        pos = np.minimum(np.searchsorted(stored, keys), self.count - 1)
        out[inside] = np.where(stored[pos] == keys, pos, -1)
        return out

    @property
    def count(self) -> int:
        return self.coords.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]


def _build(voxel_size, origin, coords, features, scale_level, pool=False) -> VoxelFeatureMap:
    """A map from checked (V, 3) int64 ``coords`` and (V, C) ``features``.

    Rows that share a key are averaged, added in their input order, when
    ``pool`` and rejected otherwise.
    """
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
    radix = np.array([span[1] * span[2], span[2], 1], np.int64)
    keys = (coords - lo) @ radix  # mixed radix: ascends with coords
    order = np.argsort(keys, kind="stable")
    keys, features = keys[order], features[order]
    repeats = keys[1:] == keys[:-1]
    if repeats.any():
        if not pool:
            raise InvalidInputError("duplicate voxel coordinates")
        starts = np.flatnonzero(np.append(True, ~repeats))
        counts = np.diff(starts, append=keys.size)
        features = np.add.reduceat(features, starts, axis=0) / counts[:, None]
        order, keys = order[starts], keys[starts]
    if not np.isfinite(features).all():  # a mean of finite rows can overflow
        raise InvalidInputError("voxel features contain non-finite values")
    keys.flags.writeable = False
    index = (lo, hi, radix, keys)
    return _from_checked(VoxelFeatureMap, voxel_size, origin, coords[order], features, scale_level, index)


def _as_int64(floored: np.ndarray, xyz: np.ndarray, what: str) -> np.ndarray:
    """Whole-valued floats as int64; a row the cast would wrap is an error naming its point."""
    outside = ~((floored >= -(2.0**63)) & (floored < 2.0**63)).all(axis=1)
    if outside.any():
        i = int(np.argmax(outside))
        raise InvalidInputError(f"{what} {i} {xyz[i].tolist()} lies outside the int64 voxel range")
    return floored.astype(np.int64)


def voxelize(
    xyz: np.ndarray,
    features: np.ndarray,
    voxel_size: float = DEFAULT_VOXEL_SIZE,
    origin=(0.0, 0.0, 0.0),
) -> VoxelFeatureMap:
    """Quantize points to voxels; co-located feature rows are averaged."""
    xyz = _as_points(xyz)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    if features.ndim != 2 or features.shape[0] != xyz.shape[0]:
        raise InvalidInputError(f"features shape {features.shape} does not match {xyz.shape[0]} points")
    if not np.isfinite(xyz).all():
        raise InvalidInputError("cannot voxelize non-finite coordinates")
    if not (voxel_size > 0):
        raise InvalidInputError(f"voxel_size must be positive, got {voxel_size}")
    origin_arr = np.asarray(origin, dtype=np.float64).reshape(3)
    coords = _as_int64(np.floor((xyz - origin_arr) / voxel_size), xyz, "point")
    return _build(voxel_size, origin_arr, coords, features, 0, pool=True)


def downsample(vmap: VoxelFeatureMap) -> VoxelFeatureMap:
    """Halve the resolution: floor-divide coordinates by two, average features."""
    return _build(
        vmap.voxel_size * 2.0, vmap.origin, vmap.coords // 2, vmap.features, vmap.scale_level + 1, pool=True
    )


_CORNERS = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int64)


def gather_trilinear(vmap: VoxelFeatureMap, query_xyz: np.ndarray) -> np.ndarray:
    """Sample features at arbitrary points.

    Standard trilinear weights over the 8 voxel centers around each query,
    renormalized over the occupied ones; a query with no occupied neighbor
    (or only zero-weight ones) yields the zero vector.
    """
    query_xyz = _as_points(query_xyz, what="query points")
    if not np.isfinite(query_xyz).all():
        raise InvalidInputError("query points contain non-finite values")
    m = query_xyz.shape[0]
    out = np.zeros((m, vmap.width))
    # Continuous position in "center units": voxel center c sits at u = c.
    u = (query_xyz - vmap.origin) / vmap.voxel_size - 0.5
    base = _as_int64(np.floor(u), query_xyz, "query point")  # base + 1 fits too: no float below 2**63 is within 1 of it
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
    if not np.isfinite(out).all():
        raise InvalidInputError("voxel features contain non-finite values")
    return _from_checked(
        VoxelFeatureMap, vmap.voxel_size, vmap.origin, vmap.coords, out, vmap.scale_level, vmap._index
    )


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
