"""One rule per config field: each of the seven spec and division dataclasses
checks every field in its constructor, and the YAML readers parse structure
only. So a bad value built in Python and the same value read from a file give
the same error class and message; the file adds its path and the nesting.
"""

import math

import pytest
import yaml

from lidarseq.aggregation import ClassGroup, DistanceSplit, GroupDivision, load_division
from lidarseq.errors import ConfigurationError, InvalidSpecError
from lidarseq.sequence import CameraSpec, EgoSpec, InstanceSpec, SyntheticSceneSpec, load_scene_spec

SCENE = {"frame_count": 3, "points_per_frame": 120, "classes": {1: 0.5, 9: 0.5}}
INSTANCE = {"class_id": 1, "points": 5, "center": [1.0, 2.0, 0.0]}
GROUP = {"classes": [1], "step": 2}

# each dataclass: its error; a Python build with the given fields over valid
# ones; the scene spec or division file holding the same fields; the file
# reader that loads it; and the nesting the reader puts before the message
PLACES = {
    SyntheticSceneSpec: (InvalidSpecError, lambda kw: SyntheticSceneSpec(**{**SCENE, **kw}),
                         lambda kw: {**SCENE, **kw}, load_scene_spec, ""),
    InstanceSpec: (InvalidSpecError, lambda kw: InstanceSpec(**{**INSTANCE, **kw}),
                   lambda kw: {**SCENE, "instances": [{**INSTANCE, **kw}]}, load_scene_spec, "instance 0: "),
    EgoSpec: (InvalidSpecError, lambda kw: EgoSpec(**kw), lambda kw: {**SCENE, "ego": kw}, load_scene_spec, "ego: "),
    CameraSpec: (InvalidSpecError, lambda kw: CameraSpec(**kw), lambda kw: {**SCENE, "camera": kw},
                 load_scene_spec, "camera: "),
    GroupDivision: (ConfigurationError, lambda kw: GroupDivision(**{"groups": (ClassGroup(frozenset({1}), 2),), **kw}),
                    lambda kw: {"groups": [GROUP], **kw}, load_division, ""),
    ClassGroup: (ConfigurationError, lambda kw: ClassGroup(**{**GROUP, **kw}),
                 lambda kw: {"groups": [{**GROUP, **kw}]}, load_division, "group 0: "),
    DistanceSplit: (ConfigurationError, lambda kw: DistanceSplit(**{"threshold_m": 5.0, **kw}),
                    lambda kw: {"groups": [{**GROUP, "distance_split": {"threshold_m": 5.0, **kw}}]},
                    load_division, "group 0: distance_split: "),
}

LABEL_FIELD = "must lie in the 16-bit label field [0, 65535], got"

# (dataclass, field, bad value, the message both paths give)
BAD_VALUES = [
    (SyntheticSceneSpec, "frame_count", 2.5, "frame_count must be an integer, got 2.5"),
    (SyntheticSceneSpec, "frame_count", True, "frame_count must be an integer, got True"),
    (SyntheticSceneSpec, "frame_count", 0, "frame_count must be >= 1"),
    (SyntheticSceneSpec, "points_per_frame", "120", "points_per_frame must be an integer, got '120'"),
    (SyntheticSceneSpec, "seed", "7", "seed must be an integer, got '7'"),
    (SyntheticSceneSpec, "seed", -1, "seed must be >= 0, got -1"),
    (SyntheticSceneSpec, "extent", math.inf, "extent must be finite, got inf"),
    (SyntheticSceneSpec, "extent", False, "extent must be a number, got False"),
    (SyntheticSceneSpec, "extent", -1.0, "extent must be non-negative, got -1.0"),
    (SyntheticSceneSpec, "classes", {70000: 1.0}, f"classes {LABEL_FIELD} 70000"),
    (SyntheticSceneSpec, "classes", {1: math.nan, 9: 1.0}, "classes must be finite, got nan"),
    (SyntheticSceneSpec, "classes", {1.5: 1.0}, "classes must map integer class ids to fractions, got {1.5: 1.0}"),
    (SyntheticSceneSpec, "classes", [1, 9], "classes must map integer class ids to fractions, got [1, 9]"),
    (InstanceSpec, "class_id", 70000, f"class_id {LABEL_FIELD} 70000"),
    (InstanceSpec, "points", 5.5, "points must be an integer, got 5.5"),
    (InstanceSpec, "center", [1.0, 2.0], "center must be a list of three numbers, got [1.0, 2.0]"),
    (InstanceSpec, "size", [1.0, 1.0, "x"], "size must be a number, got 'x'"),
    (InstanceSpec, "velocity", [math.inf, 0.0, 0.0], "velocity must be finite, got inf"),
    (InstanceSpec, "instance_id", 70000, f"instance_id {LABEL_FIELD} 70000"),
    (InstanceSpec, "instance_id", 1.5, "instance_id must be an integer, got 1.5"),
    (EgoSpec, "start", [0.0, 0.0], "start must be a list of three numbers, got [0.0, 0.0]"),
    (EgoSpec, "velocity", "fast", "velocity must be a list, got 'fast'"),
    (EgoSpec, "yaw_rate_deg", math.nan, "yaw_rate_deg must be finite, got nan"),
    (CameraSpec, "width", 64.5, "width must be an integer, got 64.5"),
    (CameraSpec, "width", "64", "width must be an integer, got '64'"),
    (CameraSpec, "height", 0, "height must be positive, got 0"),
    (GroupDivision, "window", math.inf, "window must be an integer, got inf"),
    (GroupDivision, "window", 2.5, "window must be an integer, got 2.5"),
    (GroupDivision, "window", "abc", "window must be an integer, got 'abc'"),
    (GroupDivision, "window", 0, "window must be a positive integer, got 0"),
    (GroupDivision, "default_step", 0, "default_step must be a positive integer or infinite, got 0"),
    (GroupDivision, "default_step", 2.5, "default_step must be a positive integer or infinite, got 2.5"),
    (ClassGroup, "classes", [1.5], "classes must be integers, got 1.5"),
    (ClassGroup, "classes", ["3"], "classes must be integers, got '3'"),
    (ClassGroup, "classes", [70000], "class ids [70000] lie outside the label field [0, 65535]"),
    (ClassGroup, "step", True, "step must be a positive integer or infinite, got True"),
    (ClassGroup, "step", 0, "step must be a positive integer or infinite, got 0"),
    (DistanceSplit, "threshold_m", math.inf, "threshold_m must be finite, got inf"),
    (DistanceSplit, "threshold_m", "5", "threshold_m must be a number, got '5'"),
    (DistanceSplit, "threshold_m", -1.0, "distance threshold must be positive"),
    (DistanceSplit, "near_step_multiplier", 2.5, "near_step_multiplier must be an integer, got 2.5"),
    (DistanceSplit, "near_step_multiplier", 0, "near_step_multiplier must be a positive integer"),
]


def test_the_table_covers_every_dataclass():
    assert {case[0] for case in BAD_VALUES} == set(PLACES)


@pytest.mark.parametrize(
    "spec_type, key, value, message", BAD_VALUES,
    ids=[f"{case[0].__name__}.{case[1]}-{case[2]!r}" for case in BAD_VALUES],
)
def test_python_and_file_give_one_message(tmp_path, spec_type, key, value, message):
    error, build, mapping, load, nesting = PLACES[spec_type]
    with pytest.raises(error) as info:
        build({key: value})
    assert type(info.value) is error and str(info.value) == message
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(mapping({key: value})))
    with pytest.raises(error) as info:
        load(path)
    assert type(info.value) is error and str(info.value) == f"{path}: {nesting}{message}"


def test_the_valid_builds_in_the_table_pass(tmp_path):
    path = tmp_path / "config.yaml"
    for spec_type, (_, build, mapping, load, _) in PLACES.items():
        assert isinstance(build({}), spec_type)
        path.write_text(yaml.safe_dump(mapping({})))
        load(path)


def test_inputs_python_used_to_accept_now_fail_with_the_file_message():
    # each of these was accepted when built in Python, or failed only later:
    # in generate_synthetic's broadcasting, in write_sequence's 16-bit check,
    # by rendering instance 1.5 as instance 1, or in a raw TypeError
    cases = {
        "center must be a list of three numbers, got (1.0, 2.0)": lambda: InstanceSpec(1, 5, (1.0, 2.0)),
        "start must be a list of three numbers, got (0.0, 0.0)": lambda: EgoSpec(start=(0.0, 0.0)),
        f"instance_id {LABEL_FIELD} 70000": lambda: InstanceSpec(1, 5, (0.0, 0.0, 0.0), instance_id=70000),
        f"classes {LABEL_FIELD} 70000": lambda: SyntheticSceneSpec(2, 10, {70000: 1.0}),
        "instance_id must be an integer, got 1.5": lambda: InstanceSpec(1, 5, (0.0, 0.0, 0.0), instance_id=1.5),
        "width must be an integer, got 64.5": lambda: CameraSpec(64.5, 48),
        "width must be an integer, got '64'": lambda: CameraSpec("64", 48),
        "threshold_m must be finite, got inf": lambda: DistanceSplit(math.inf),
    }
    for message, build in cases.items():
        with pytest.raises((InvalidSpecError, ConfigurationError)) as info:
            build()
        assert str(info.value) == message


def test_fields_keep_the_value_their_rule_returns():
    spec = SyntheticSceneSpec(2, 10.0, {9: 1}, instances=(InstanceSpec(9, 2.0, [1, 2, 3]),))
    assert spec.points_per_frame == 10 and type(spec.points_per_frame) is int
    assert spec.classes == {9: 1.0} and type(spec.classes[9]) is float
    assert spec.instances[0].center == (1.0, 2.0, 3.0) and type(spec.instances[0].center) is tuple
    assert type(spec.instances[0].points) is int
    assert InstanceSpec(1, 5, (0, 0, 0), instance_id=None).instance_id is None
    assert CameraSpec(32.0, 24.0) == CameraSpec(32, 24)
