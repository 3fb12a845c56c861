"""Import rules of the package, mostly read from the source with ``ast``.

Every import sits at module level, so a module's dependencies show at its
top; ``yaml`` is the one exception, imported only when a config file is
read. The package-internal ``from .x import`` graph has no cycle, one
runner starts every thread, calib.txt has one parser called from two places,
no config reader holds a value rule of its own, and the CLI's start-up
imports no thread pool or logging. The parameter
names of every callable the package root exports are pinned.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import lidarseq

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lidarseq"
LATE_IMPORTS = {"yaml"}

# a parameter added or removed shows here, as the CLI's options show in test_cli
ROOT_PARAMETERS = {
    "AggregatedCloud": "labeled source_frame source_step reference_frame",
    "AnchorSet": "positions",
    "BenchReport": "rows",
    "BenchRow": "strategy window division points bytes millis",
    "CameraCalib": "fx fy cx cy extrinsic width height",
    "ClassGroup": "classes step distance_split",
    "DistanceSplit": "threshold_m near_step_multiplier",
    "GroupDivision": "groups window default_step name",
    "ImageFeatureMap": "features",
    "InstanceTrack": "instance_id class_id frames parts",
    "LabeledCloud": "cloud semantic instance",
    "PointCloud": "xyz intensity",
    "PointImageFeatures": "xyz features source_frame",
    "Pose": "matrix",
    "SequenceFrame": "index labeled pose timestamp file_pose",
    "SharedVoxelSelection": "coords student_index teacher_index",
    "SyntheticSceneSpec": "frame_count points_per_frame classes instances ego camera seed extent",
    "VoxelFeatureMap": "voxel_size origin coords features scale_level",
    "aggregate_direct": "frames t window",
    "aggregate_fsa": "frames t division",
    "aggregate_image_features": "frames images calib t step window",
    "aggregate_stepped": "frames t window step",
    "apply_fixed_kernel": "vmap kernel",
    "apply_switch": "agg track_old track_new threshold",
    "classify_motion": "track threshold",
    "compose": "outer inner",
    "corrupt_labels": "frame error_rate seed",
    "distill_loss": "student teacher",
    "division_preset": "name window",
    "downsample": "vmap",
    "extract_track": "agg instance_id",
    "fuse_to_voxels": "agg scales seed voxel_size",
    "gather_trilinear": "vmap query_xyz",
    "generate_synthetic": "spec",
    "invert": "pose",
    "lift_features": "frame image calib",
    "load_camera_calib": "seq_dir",
    "load_division": "path",
    "load_scene_spec": "path",
    "load_sequence": "seq_dir window indices",
    "load_voxel_maps": "path",
    "moving_to_static": "track threshold",
    "project_to_image": "points calib",
    "read_image": "path",
    "relative_pose": "target source",
    "resolve_division": "spec window",
    "ring_anchors": "center ring_radius",
    "run_bench": "frames strategies t_values windows division repeats",
    "save_voxel_maps": "path maps",
    "sequence_length": "seq_dir",
    "shared_selection": "student teacher",
    "static_to_moving": "track scene anchors seed threshold",
    "temporal_multimodal_gather": "points fused",
    "voxelize": "xyz features voxel_size origin",
    "write_image": "path image",
    "write_sequence": "seq_dir frames calib",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _nodes(tree: ast.AST, kinds=(ast.Import, ast.ImportFrom), function=None):
    """(innermost enclosing function name or None, node) for every node of ``kinds``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, kinds):
            yield function, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _nodes(child, kinds, inner)


def _local_targets(node: ast.ImportFrom, modules) -> list[str]:
    if node.level != 1:
        return []
    # "from . import a, b" names modules; "from .a import x" names one
    names = [alias.name for alias in node.names] if node.module is None else [node.module]
    return [name for name in names if name in modules]


def _find_cycle(graph: dict[str, set[str]]) -> list[str]:
    state: dict[str, str] = {}
    path: list[str] = []

    def visit(node):
        state[node] = "open"
        path.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        state[node] = "done"
        path.pop()
        return []

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return []


def test_the_package_sources_are_found():
    assert {"__init__", "imaging", "sequence", "voxels"} <= set(_modules())


def test_no_import_inside_a_function():
    late = [
        f"{name}.{function} line {node.lineno}"
        for name, tree in _modules().items()
        for function, node in _nodes(tree)
        if function is not None
        and not (isinstance(node, ast.Import) and {a.name for a in node.names} <= LATE_IMPORTS)
    ]
    assert late == []


def test_module_level_imports_form_no_cycle():
    modules = _modules()
    graph = {name: set() for name in modules}
    for name, tree in modules.items():
        for function, node in _nodes(tree):
            if function is None and isinstance(node, ast.ImportFrom):
                graph[name].update(_local_targets(node, modules))
    assert _find_cycle(graph) == []


def test_a_cycle_is_found():
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


def _call_sites(trees: dict[str, ast.Module], callee: str) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function) of each call of ``callee``, by name or as an attribute."""
    return [
        (name, function)
        for name, tree in trees.items()
        for function, node in _nodes(tree, ast.Call)
        if isinstance(node.func, (ast.Attribute, ast.Name))
        and (node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id) == callee
    ]


def test_one_thread_runner_makes_every_thread():
    # geometry._on_two_threads is the one place a thread is started
    assert _call_sites(_modules(), "Thread") == [("geometry", "_on_two_threads")]


def test_calib_txt_is_parsed_by_the_frame_reader_and_the_camera_loader_only():
    # a command that reads frames takes Tr from the frame reader, and only lift reads the camera,
    # so no command parses calib.txt twice
    assert sorted(_call_sites(_modules(), "_parse_calib")) == [("imaging", "load_camera_calib"),
                                                                ("sequence", "_frame_reader")]


def test_a_second_calib_parse_is_found():
    tree = ast.parse("def switch_sequence(d):\n    return Pose(sequence._parse_calib(d / 'calib.txt')['Tr'])")
    assert _call_sites({"augment": tree}, "_parse_calib") == [("augment", "switch_sequence")]


VALUE_RULES = {"_integer", "_number", "_vector", "_label_id", "_class_fractions"}


def _rules_in_readers(trees: dict[str, ast.Module]) -> list[str]:
    """Each value rule named anywhere inside a ``_from_mapping(...)`` call, once."""
    return sorted({
        f"{name} line {inner.lineno}: {inner.id}"
        for name, tree in trees.items()
        for _, node in _nodes(tree, ast.Call)
        if isinstance(node.func, ast.Name) and node.func.id == "_from_mapping"
        for inner in ast.walk(node)
        if isinstance(inner, ast.Name) and inner.id in VALUE_RULES
    })


def test_config_readers_hold_no_value_rule():
    # the dataclasses check every field in their constructors; a reader that
    # applied a rule of its own would be a second table, free to drift
    assert _rules_in_readers(_modules()) == []


def test_a_value_rule_in_a_reader_is_found():
    tree = ast.parse('_x = _from_mapping(X, "x", a=lambda v: _integer(v), b=_from_mapping(Y, "y", c=_vector))')
    assert _rules_in_readers({"m": tree}) == ["m line 1: _integer", "m line 1: _vector"]


def test_the_cli_loads_no_executor_or_logging():
    # concurrent.futures, which loads logging, adds about 8 ms to every CLI start (-X importtime),
    # and statistics, which loads fractions and decimal, 3-4.5 ms
    forbidden = "{'concurrent.futures', 'logging', 'statistics'}"
    probe = f"import sys, lidarseq.cli; print(sorted({forbidden} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_root_callables_take_exactly_their_parameters():
    exported = {
        name: obj for name, obj in vars(lidarseq).items()
        if not name.startswith("_") and callable(obj)
        and not (inspect.isclass(obj) and issubclass(obj, BaseException))
    }
    got = {name: " ".join(inspect.signature(obj).parameters) for name, obj in exported.items()}
    assert got == ROOT_PARAMETERS
