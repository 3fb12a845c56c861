"""Camera projection, image-feature lifting, and temporal fused voxel maps.

Per-pixel feature vectors are plain inputs here, normalized RGB from a PPM or
precomputed channels from a raw float dump; no 2D backbone runs. The geometry
is the interesting part: project a sweep into the camera, pull features onto
the in-FOV points, carry those points into the present frame with the pose
chain, fuse everything into multi-scale sparse voxel maps, and gather the
result back onto any temporal LiDAR cloud. Lifting takes the nearest pixel;
a point at a camera depth of DEFAULT_Z_MIN (0.1 m) or less is outside the FOV.

Camera loading lives here, beside the image readers: ``load_camera_calib``
takes P2 and Tr from a sequence's calib.txt and the image size from the
first image under image_2/.

Image files on disk:
    .ppm   binary P6, maxval 255, features = RGB / 255, C = 3
    .pgm   binary P5, maxval 255, features = gray / 255, C = 1
    .fmap  header line b"FMAP <C> <H> <W>\\n" then C planes of H*W
           little-endian float32, row-major within each plane
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .aggregation import _walk
from .errors import ConfigurationError, FormatError, InvalidInputError
from .geometry import Pose, _as_points, _is_whole, _seeded_rng
from .sequence import CameraCalib, SequenceFrame, _parse_calib
from .voxels import (
    DEFAULT_VOXEL_SIZE,
    VoxelFeatureMap,
    apply_fixed_kernel,
    downsample,
    gather_trilinear,
    seeded_kernel,
    voxelize,
)

DEFAULT_IMAGE_STEP = 12
DEFAULT_IMAGE_WINDOW = 48
DEFAULT_Z_MIN = 0.1
# the image files read_image decodes, in the order a frame's image is looked up
_IMAGE_SUFFIXES = (".ppm", ".pgm", ".fmap")


@dataclass(frozen=True)
class ImageFeatureMap:
    """Dense per-pixel feature vectors, shape (H, W, C)."""

    features: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 3 or feats.shape[0] < 1 or feats.shape[1] < 1 or feats.shape[2] < 1:
            raise InvalidInputError("image features must have shape (H, W, C)")
        if not np.isfinite(feats).all():
            raise InvalidInputError("image features must be finite")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)

    @property
    def height(self) -> int:
        return self.features.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]

    @property
    def channels(self) -> int:
        return self.features.shape[2]


@dataclass(frozen=True)
class PointImageFeatures:
    """Image features attached to the LiDAR points that saw them.

    Only the lifting functions build one, from fresh arrays it freezes.
    """

    xyz: np.ndarray
    features: np.ndarray
    source_frame: np.ndarray

    def __post_init__(self):
        for arr in (self.xyz, self.features, self.source_frame):
            arr.setflags(write=False)

    @property
    def count(self) -> int:
        return self.xyz.shape[0]

    @property
    def channels(self) -> int:
        return self.features.shape[1]


def project_to_image(points, calib: CameraCalib) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pinhole projection of LiDAR points into pixel coordinates.

    Returns (uv, depth, in_fov): continuous pixel coordinates, camera-frame
    depth, and the mask of points with depth > DEFAULT_Z_MIN landing inside
    the image bounds. uv rows for out-of-FOV points are zeroed, not meaningful.
    """
    xyz = _as_points(points, kept=np.float32)  # Pose.apply reads float32 as it is
    cam = calib.extrinsic.apply(xyz)
    depth = cam[:, 2].copy()
    valid = depth > DEFAULT_Z_MIN
    safe = np.where(valid, depth, 1.0)
    u = calib.fx * cam[:, 0] / safe + calib.cx
    v = calib.fy * cam[:, 1] / safe + calib.cy
    in_fov = valid & (u >= 0) & (u < calib.width) & (v >= 0) & (v < calib.height)
    uv = np.zeros((xyz.shape[0], 2), dtype=np.float64)
    uv[in_fov, 0] = u[in_fov]
    uv[in_fov, 1] = v[in_fov]
    return uv, depth, in_fov


def _nearest_pixels(uv: np.ndarray, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    cols = np.clip(np.rint(uv[:, 0]).astype(np.int64), 0, width - 1)
    rows = np.clip(np.rint(uv[:, 1]).astype(np.int64), 0, height - 1)
    return rows, cols


def lift_features(
    frame: SequenceFrame, image: ImageFeatureMap, calib: CameraCalib
) -> PointImageFeatures:
    """Give each in-FOV point the features of its nearest pixel.

    Point coordinates stay in the frame's own LiDAR frame, float64 whatever
    the frame holds; the caller decides where to move them.
    """
    if (image.width, image.height) != (calib.width, calib.height):
        raise ConfigurationError(
            f"image is {image.width}x{image.height} but calibration expects "
            f"{calib.width}x{calib.height}"
        )
    xyz = frame.labeled.cloud.xyz
    uv, _, in_fov = project_to_image(xyz, calib)
    rows, cols = _nearest_pixels(uv[in_fov], image.width, image.height)
    count = int(in_fov.sum())
    return PointImageFeatures(
        xyz[in_fov].astype(np.float64, copy=False),
        image.features[rows, cols],
        np.full(count, frame.index, dtype=np.int64),
    )


def aggregate_image_features(
    frames: Sequence[SequenceFrame],
    images: Mapping[int, ImageFeatureMap],
    calib: CameraCalib,
    t: int,
    step: int = DEFAULT_IMAGE_STEP,
    window: int = DEFAULT_IMAGE_WINDOW,
) -> PointImageFeatures:
    """Lift the present frame and each temporal sample, all in present coords.

    The frames lifted are the ones the point sampler reads with the single
    step ``step``: t, then t - i*step for i = 1..floor(window / step), with
    offsets reaching past the first given frame truncated. ``images`` maps
    each of those frame indices to its image, and may read it at lookup: an
    image is let go once its frame is lifted, in walk order. One ``calib``
    serves every frame. Rows come present frame first, then by ascending offset.
    """
    if not _is_whole(step) or step < 1:
        raise InvalidInputError(f"image step must be a positive integer, got {step!r}")
    if not _is_whole(window) or window < 0:
        raise InvalidInputError(f"image window must be a non-negative integer, got {window!r}")
    xyz, features, source = [], [], []
    for frame, pose in _walk(frames, t, [step], window):
        try:
            image = images[frame.index]
        except KeyError:
            raise InvalidInputError(f"no image provided for frame {frame.index}") from None
        lifted = lift_features(frame, image, calib)
        del image  # the next lookup may read an image: hold one at a time
        xyz.append(lifted.xyz if pose is None else pose.apply(lifted.xyz))
        features.append(lifted.features)
        source.append(lifted.source_frame)
    widths = {f.shape[1] for f in features}
    if len(widths) > 1:
        raise ConfigurationError(f"images disagree on channel count: {sorted(widths)}")
    return PointImageFeatures(
        np.concatenate(xyz, axis=0),
        np.concatenate(features, axis=0),
        np.concatenate(source, axis=0),
    )


def fuse_to_voxels(
    agg: PointImageFeatures,
    scales: int = 3,
    seed: int = 0,
    voxel_size: float = DEFAULT_VOXEL_SIZE,
) -> list[VoxelFeatureMap]:
    """Voxelize lifted features and fuse them into a multi-scale pyramid.

    Scale ``level`` applies the fixed submanifold kernel seeded with
    ``seed + level``; coarser scales halve the grid. Deterministic for a
    given seed.
    """
    if not _is_whole(scales):
        raise InvalidInputError(f"scales must be an integer, got {scales!r}")
    if scales < 1:
        raise InvalidInputError(f"need at least one scale, got {scales}")
    if agg.count == 0:
        raise InvalidInputError("cannot fuse an empty feature cloud")
    current = voxelize(agg.xyz, agg.features, voxel_size)
    pyramid = []
    for level in range(int(scales)):
        if level:
            current = downsample(pyramid[-1])
        pyramid.append(apply_fixed_kernel(current, seeded_kernel(current.width, seed + level)))
    return pyramid


def temporal_multimodal_gather(points, fused: Sequence[VoxelFeatureMap]) -> np.ndarray:
    """Per-point image features gathered from every scale and concatenated.

    ``points`` is an (N, 3) array, such as an aggregated cloud's
    ``labeled.cloud.xyz``. Output width is scales x C; a scale with no
    occupied neighbors around a point contributes zeros there.
    """
    if not fused:
        raise ConfigurationError("no fused maps given")
    widths = {m.width for m in fused}
    if len(widths) > 1:
        raise ConfigurationError(f"fused maps disagree on feature width: {sorted(widths)}")
    xyz = _as_points(points)
    return np.concatenate([gather_trilinear(m, xyz) for m in fused], axis=1)


# ---------------------------------------------------------------------------
# image files


def _read_token(buf: bytes, pos: int, path) -> tuple[bytes, int]:
    """Next whitespace-delimited PNM header token, skipping # comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError(f"{path}: truncated image header")
    return buf[start:pos], pos


def _parse_pnm_header(buf: bytes, path) -> tuple[bytes, int, int, int]:
    """Returns (magic, width, height, data offset); maxval must be 255."""
    magic, pos = _read_token(buf, 0, path)
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{path}: not a binary PGM/PPM file")
    fields = []
    for _ in range(3):
        token, pos = _read_token(buf, pos, path)
        if not token.isdigit():
            raise FormatError(f"{path}: bad header token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad image dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    return magic, width, height, pos + 1  # single whitespace byte after maxval


def _parse_fmap_header(buf: bytes, path) -> tuple[int, int, int, int]:
    end = buf.find(b"\n")
    if end < 0:
        raise FormatError(f"{path}: truncated header")
    parts = buf[:end].split()
    if len(parts) != 4 or parts[0] != b"FMAP":
        raise FormatError(f"{path}: bad feature-map header")
    try:
        channels, height, width = (int(p) for p in parts[1:])
    except ValueError:
        raise FormatError(f"{path}: bad feature-map header") from None
    if channels < 1 or height < 1 or width < 1:
        raise FormatError(f"{path}: bad feature-map dimensions")
    return channels, height, width, end + 1


def peek_image_size(path) -> tuple[int, int]:
    """(width, height) from the file header without decoding pixels."""
    path = Path(path)
    buf = path.read_bytes()
    if buf[:4] == b"FMAP":
        channels, height, width, _ = _parse_fmap_header(buf, path)
        return width, height
    _, width, height, _ = _parse_pnm_header(buf, path)
    return width, height


def load_camera_calib(seq_dir) -> CameraCalib:
    """Build a CameraCalib from calib.txt; the image size comes from the first
    .ppm, .pgm or .fmap file under image_2/ by name; other files there, such
    as a .gitkeep, are passed over."""
    seq_dir = Path(seq_dir)
    entries = _parse_calib(seq_dir / "calib.txt")
    if "P2" not in entries:
        raise FormatError(f"{seq_dir / 'calib.txt'}: missing P2 entry")
    p2 = entries["P2"].tolist()  # Python floats, as an error shows them
    image_dir = seq_dir / "image_2"
    candidates = sorted(p for p in image_dir.glob("*") if p.suffix in _IMAGE_SUFFIXES)
    if not candidates:
        raise InvalidInputError(
            f"{image_dir}: no image ({', '.join(_IMAGE_SUFFIXES)}) to take the image size from"
            + _png_note(image_dir.glob("*.png"))
        )
    width, height = peek_image_size(candidates[0])
    try:
        return CameraCalib(p2[0][0], p2[1][1], p2[0][2], p2[1][2], Pose(entries["Tr"]), width, height)
    except InvalidInputError as exc:
        raise FormatError(f"{seq_dir / 'calib.txt'}: {exc}") from None


def _png_note(paths) -> str:
    """A note naming the first of ``paths``, PNGs passed over, or "" for none."""
    return next((f"; passed over {png}: lift reads .ppm, .pgm or .fmap, so convert PNGs" for png in sorted(paths)), "")


def read_image(path) -> ImageFeatureMap:
    """Decode .ppm/.pgm (channels = RGB/gray over 255) or a raw .fmap dump."""
    path = Path(path)
    buf = path.read_bytes()
    if buf[:4] == b"FMAP":
        channels, height, width, offset = _parse_fmap_header(buf, path)
        want = channels * height * width * 4
        if len(buf) - offset != want:
            raise FormatError(f"{path}: expected {want} payload bytes, found {len(buf) - offset}")
        planes = np.frombuffer(buf, dtype="<f4", count=channels * height * width, offset=offset)
        feats = planes.reshape(channels, height, width).transpose(1, 2, 0).astype(np.float64)
    else:
        magic, width, height, offset = _parse_pnm_header(buf, path)
        channels = 3 if magic == b"P6" else 1
        want = width * height * channels
        if len(buf) - offset != want:
            raise FormatError(f"{path}: expected {want} payload bytes, found {len(buf) - offset}")
        raw = np.frombuffer(buf, dtype=np.uint8, count=want, offset=offset)
        feats = raw.reshape(height, width, channels).astype(np.float64) / 255.0
    try:
        return ImageFeatureMap(feats)
    except InvalidInputError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_image(path, image: ImageFeatureMap) -> None:
    """Encode by suffix: .ppm (C=3), .pgm (C=1), .fmap (any C, lossless)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".fmap":
        header = f"FMAP {image.channels} {image.height} {image.width}\n".encode()
        planes = image.features.transpose(2, 0, 1).astype("<f4")
        path.write_bytes(header + planes.tobytes())
        return
    if suffix == ".ppm":
        if image.channels != 3:
            raise ConfigurationError(f"PPM needs 3 channels, image has {image.channels}")
    elif suffix == ".pgm":
        if image.channels != 1:
            raise ConfigurationError(f"PGM needs 1 channel, image has {image.channels}")
    else:
        raise ConfigurationError(f"unsupported image suffix {suffix!r}")
    if image.features.min() < 0.0 or image.features.max() > 1.0:
        raise InvalidInputError("PNM images need features in [0, 1]")
    _write_pnm(path, np.rint(image.features * 255.0).astype(np.uint8))


def _write_pnm(path: Path, raw: np.ndarray) -> None:
    """Binary P6 (3 channels) or P5 (1 channel) of an (H, W, C) uint8 array."""
    height, width, channels = raw.shape
    path.write_bytes(f"{'P6' if channels == 3 else 'P5'} {width} {height} 255\n".encode() + raw.tobytes())


def synthetic_feature_image(
    calib: CameraCalib, frame_index: int, channels: int = 3, seed: int = 0
) -> ImageFeatureMap:
    """Deterministic per-(seed, frame) random features on a 1/255 grid.

    Values land exactly on the PPM quantization lattice so writing to .ppm
    and reading back is lossless.
    """
    return ImageFeatureMap(_feature_draw(calib, frame_index, channels, seed).astype(np.float64) / 255.0)


def _feature_draw(calib: CameraCalib, frame_index: int, channels: int, seed: int) -> np.ndarray:
    """The int64 (H, W, C) draw in [0, 255] behind ``synthetic_feature_image``."""
    rng = _seeded_rng(seed=seed, frame_index=frame_index)
    return rng.integers(0, 256, size=(calib.height, calib.width, channels))


def _write_synthetic_image(path, calib: CameraCalib, frame_index: int, seed: int) -> None:
    """Write the .ppm that ``write_image(path, synthetic_feature_image(calib,
    frame_index, 3, seed))`` writes, straight from the integer draw."""
    _write_pnm(Path(path), _feature_draw(calib, frame_index, 3, seed).astype(np.uint8))
