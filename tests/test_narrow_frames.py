"""Decoded frames keep the file's float32 coordinates and intensity and its
uint16 label fields; every result equals the one their float64/int64 twins
give, dtype and bytes alike."""

import dataclasses

import numpy as np
import pytest

from lidarseq.aggregation import (
    ClassGroup,
    GroupDivision,
    aggregate_direct,
    aggregate_fsa,
    aggregate_stepped,
    division_preset,
)
from lidarseq.geometry import LabeledCloud, PointCloud
from lidarseq.imaging import aggregate_image_features, fuse_to_voxels, synthetic_feature_image
from lidarseq.sequence import (
    EgoSpec,
    InstanceSpec,
    SyntheticSceneSpec,
    corrupt_labels,
    default_camera_calib,
    generate_synthetic,
    load_sequence,
    write_sequence,
)

from helpers import widened

T = 11
# A float32 point whose range is 29.99999920670542 m in float64 and 30.0 in
# float32: near under division5's 30 m split only when computed in float64.
SPLIT_EDGE = (4.806425094604492, -24.543867111206055, 16.56794548034668)


def planted(frame, row: int, xyz, class_id: int):
    """``frame`` with one point moved to ``xyz`` and given ``class_id``."""
    coords, semantic = frame.labeled.cloud.xyz.copy(), frame.labeled.semantic.copy()
    coords[row], semantic[row] = xyz, class_id
    labeled = LabeledCloud(PointCloud(coords, frame.labeled.cloud.intensity), semantic, frame.labeled.instance)
    return dataclasses.replace(frame, labeled=labeled)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    spec = SyntheticSceneSpec(
        frame_count=T + 1,
        points_per_frame=900,
        classes={1: 0.2, 2: 0.1, 9: 0.25, 10: 0.15, 11: 0.15, 15: 0.15},
        instances=(InstanceSpec(class_id=1, points=40, center=(9.0, 1.0, 0.8), velocity=(1.5, 0.0, 0.0)),),
        ego=EgoSpec(start=(0.0, 0.0, 1.6), velocity=(2.0, 0.5, 0.0), yaw_rate_deg=6.0),
        seed=5,
    )
    # class 5, which no other point has, takes step 2 in division5, and step 4 (twice) nearer than 30 m
    frames = [planted(frame, 0, SPLIT_EDGE, 5) for frame in generate_synthetic(spec)]
    seq = tmp_path_factory.mktemp("narrow") / "seq"
    write_sequence(seq, frames)
    return load_sequence(seq)


@pytest.fixture(scope="module")
def twins(loaded):
    return [widened(frame) for frame in loaded]


def columns(agg):
    cloud = agg.labeled.cloud
    return (cloud.xyz, cloud.intensity, agg.labeled.semantic, agg.labeled.instance,
            agg.source_frame, agg.source_step)


def assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def test_the_loaded_frames_are_narrow_and_their_twins_wide(loaded, twins):
    assert loaded[0].labeled.cloud.xyz.dtype == np.float32 and loaded[0].labeled.semantic.dtype == np.uint16
    assert twins[0].labeled.cloud.xyz.dtype == np.float64 and twins[0].labeled.semantic.dtype == np.int64


@pytest.mark.parametrize("aggregate", [
    lambda frames: aggregate_direct(frames, T, 6),
    lambda frames: aggregate_stepped(frames, T, 8, 2),
    lambda frames: aggregate_fsa(frames, T, division_preset("division3")),
    lambda frames: aggregate_fsa(frames, T, division_preset("division5")),
], ids=["direct", "stepped", "fsa-division3", "fsa-division5"])
def test_aggregations_equal_the_wide_twins(loaded, twins, aggregate):
    got, want = aggregate(loaded), aggregate(twins)
    assert got.reference_frame == want.reference_frame == T
    assert_same_arrays(columns(got), columns(want))
    assert columns(got)[0].dtype == np.float64 and columns(got)[2].dtype == np.int64


def test_the_split_edge_point_is_near(loaded):
    # sampled by the near step 4 alone; a far point would come from every even offset
    agg = aggregate_fsa(loaded, T, division_preset("division5"))
    assert sorted((T - agg.source_frame[agg.labeled.semantic == 5]).tolist()) == [0, 4, 8]


@pytest.mark.parametrize("step", [4, 30])  # 30 lifts frame t alone
def test_image_features_and_voxels_equal_the_wide_twins(loaded, twins, step):
    calib = default_camera_calib()
    images = {frame.index: synthetic_feature_image(calib, frame.index) for frame in loaded}
    got = aggregate_image_features(loaded, images, calib, T, step=step)
    want = aggregate_image_features(twins, images, calib, T, step=step)
    assert got.xyz.dtype == np.float64 and got.count > 0
    assert_same_arrays((got.xyz, got.features, got.source_frame), (want.xyz, want.features, want.source_frame))
    assert len(set(got.source_frame.tolist())) == (1 if step == 30 else 3)
    fused_got, fused_want = fuse_to_voxels(got, scales=2, seed=3), fuse_to_voxels(want, scales=2, seed=3)
    for a, b in zip(fused_got, fused_want, strict=True):
        assert_same_arrays((a.coords, a.features, a.origin), (b.coords, b.features, b.origin))


def test_corrupted_labels_equal_the_wide_twins(loaded, twins):
    for frame, twin in zip(loaded, twins):
        got, want = corrupt_labels(frame, 0.3, 7 + frame.index), corrupt_labels(twin, 0.3, 7 + frame.index)
        assert got.labeled.semantic.dtype == np.uint16 and got.labeled.cloud is frame.labeled.cloud
        assert np.array_equal(got.labeled.semantic, want.labeled.semantic)
        assert not np.array_equal(got.labeled.semantic, frame.labeled.semantic)


def test_a_group_of_class_65535_keeps_its_points_on_loaded_frames(loaded, tmp_path):
    # 65535 + 1 wraps to 0 in uint16, which would send the class to the default slot
    write_sequence(tmp_path / "top", [planted(frame, 1, frame.labeled.cloud.xyz[1], 65535) for frame in loaded])
    top = load_sequence(tmp_path / "top")
    assert top[0].labeled.semantic.dtype == np.uint16 and top[0].labeled.semantic[1] == 65535
    division = GroupDivision((ClassGroup(frozenset({65535}), 1),), window=5)
    agg = aggregate_fsa(top, T, division)
    kept = agg.source_frame[agg.labeled.semantic == 65535]
    assert sorted(kept.tolist()) == list(range(T - 5, T + 1))
    assert_same_arrays(columns(agg), columns(aggregate_fsa([widened(f) for f in top], T, division)))
