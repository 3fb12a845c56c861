"""Temporal LiDAR sequence aggregation, lifting and augmentation toolkit."""

from .aggregation import (
    DEFAULT_CLASS_SCORES,
    DEFAULT_WINDOW,
    DIVISION_PRESET_NAMES,
    INFINITE_STEP,
    AggregatedCloud,
    ClassGroup,
    DistanceSplit,
    GroupDivision,
    aggregate_direct,
    aggregate_fsa,
    aggregate_stepped,
    division_preset,
    load_division,
    resolve_division,
)
from .augment import (
    DEFAULT_CLASS_PAIRS,
    AnchorSet,
    InstanceTrack,
    apply_switch,
    classify_motion,
    extract_track,
    moving_to_static,
    ring_anchors,
    static_to_moving,
)
from .bench import BenchReport, BenchRow, run_bench
from .distill import SharedVoxelSelection, distill_loss, shared_selection
from .errors import (
    ConfigurationError,
    FormatError,
    InvalidInputError,
    InvalidSpecError,
    LidarSeqError,
    NotAugmentableError,
    UsageError,
)
from .geometry import (
    LabeledCloud,
    PointCloud,
    Pose,
    compose,
    invert,
    relative_pose,
)
from .imaging import (
    ImageFeatureMap,
    PointImageFeatures,
    aggregate_image_features,
    fuse_to_voxels,
    lift_features,
    load_camera_calib,
    project_to_image,
    read_image,
    temporal_multimodal_gather,
    write_image,
)
from .sequence import (
    CameraCalib,
    SequenceFrame,
    SyntheticSceneSpec,
    corrupt_labels,
    generate_synthetic,
    load_scene_spec,
    load_sequence,
    sequence_length,
    write_sequence,
)
from .voxels import (
    VoxelFeatureMap,
    apply_fixed_kernel,
    downsample,
    gather_trilinear,
    load_voxel_maps,
    save_voxel_maps,
    voxelize,
)

__version__ = "0.1.0"
