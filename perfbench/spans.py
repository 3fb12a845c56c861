"""In-memory stage spans for the traced benchmark run.

The tracer wraps the stage-level public functions of ``lidarseq`` from the
outside: every module of the package that holds one of those functions under
some name gets the wrapper in its place, so calls between layers (the CLI
calling aggregation, imaging calling voxels, ...) are seen. Nothing that runs
per element is wrapped. Spans carry a name, start, end, parent and counters;
they stay in memory until the run writes them out.

Span times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which is
shared by all processes on the machine, so spans recorded in a CLI child can
be merged under the parent's frame span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.monotonic

# Per-layer metrics reported by the traced run: name -> (unit, better).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "sequence.load_sequence.self_ms": ("ms", "lower"),
    "sequence.frames_decoded": ("count", "lower"),
    "sequence.points_decoded": ("count", "lower"),
    "sequence.write_sequence.self_ms": ("ms", "lower"),
    "sequence.bytes_written": ("count", "lower"),
    "sequence.generate_synthetic.self_ms": ("ms", "lower"),
    "geometry.pose_apply.self_ms": ("ms", "lower"),
    "geometry.points_transformed": ("count", "lower"),
    "aggregation.direct.self_ms": ("ms", "lower"),
    "aggregation.stepped.self_ms": ("ms", "lower"),
    "aggregation.fsa_division3.self_ms": ("ms", "lower"),
    "aggregation.fsa_division5.self_ms": ("ms", "lower"),
    "aggregation.points_in": ("count", "lower"),
    "aggregation.direct.points_out": ("count", "lower"),
    "aggregation.stepped.points_out": ("count", "lower"),
    "aggregation.fsa_division3.points_out": ("count", "lower"),
    "aggregation.fsa_division5.points_out": ("count", "lower"),
    "aggregation.fsa_division3.keep_ratio": ("share", "lower"),
    "augment.extract_track.self_ms": ("ms", "lower"),
    "augment.static_to_moving.self_ms": ("ms", "lower"),
    "augment.apply_switch.self_ms": ("ms", "lower"),
    "augment.track_points": ("count", "higher"),
    "imaging.aggregate_image_features.self_ms": ("ms", "lower"),
    "imaging.lift_features.self_ms": ("ms", "lower"),
    "imaging.project_to_image.self_ms": ("ms", "lower"),
    "imaging.points_lifted": ("count", "higher"),
    "imaging.fov_hit_rate": ("share", "higher"),
    "imaging.fuse_to_voxels.self_ms": ("ms", "lower"),
    "imaging.read_image.self_ms": ("ms", "lower"),
    "imaging.images_read": ("count", "lower"),
    "voxels.voxelize.self_ms": ("ms", "lower"),
    "voxels.downsample.self_ms": ("ms", "lower"),
    "voxels.apply_fixed_kernel.self_ms": ("ms", "lower"),
    "voxels.save_voxel_maps.self_ms": ("ms", "lower"),
    "voxels.load_voxel_maps.self_ms": ("ms", "lower"),
    "voxels.scale0.voxels": ("count", "higher"),
    "voxels.scale1.voxels": ("count", "higher"),
    "voxels.scale2.voxels": ("count", "higher"),
    "distill.shared_selection.self_ms": ("ms", "lower"),
    "distill.distill_loss.self_ms": ("ms", "lower"),
    "distill.shared_voxels": ("count", "higher"),
    "distill.shared_ratio": ("share", "higher"),
    "cli.startup_ms": ("ms", "lower"),
    "cli.synth.ms": ("ms", "lower"),
    "cli.aggregate.ms": ("ms", "lower"),
    "cli.lift.ms": ("ms", "lower"),
    "cli.distill.ms": ("ms", "lower"),
    "trace.overhead_frac": ("share", "lower"),
    "trace.coverage_frac": ("share", "higher"),
}

# Written down before measuring: per layer, the end-to-end metrics a change
# there should move, the workload where the layer does its work, and where
# no change is predicted. Layers a workload does not run report 0 there.
LAYER_EFFECTS: dict[str, tuple[str, str, str]] = {
    "sequence": ("frames_per_s, peak_mem_mb, setup_s", "cli-disk",
                 "agg-kitti (setup_s only)"),
    "geometry": ("frames_per_s", "agg-kitti (also inside cli-disk's aggregate)", "none"),
    "aggregation": ("frames_per_s, frame_ms_p50", "agg-kitti", "cli-disk"),
    "augment": ("frames_per_s", "agg-kitti", "cli-disk"),
    "imaging": ("frames_per_s", "cli-disk (lift)", "agg-kitti"),
    "voxels": ("frames_per_s, frame_ms_p50", "cli-disk (lift, distill)", "agg-kitti"),
    "distill": ("frames_per_s", "cli-disk (distill)", "agg-kitti"),
    "cli": ("frames_per_s, peak_mem_mb, setup_s", "cli-disk", "agg-kitti"),
    "trace": ("none: describes the traced run itself", "all", "all"),
}


class Tracer:
    """Collects spans as dicts: id, parent, name, start, end, counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float | None = None) -> dict:
        """Append a span under the innermost open span."""
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": start,
            "end": end,
            "counters": {},
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str):
        record = self.record(name, clock())
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = clock()
            self._stack.pop()

    def adopt(self, spans: list[dict]) -> None:
        """Merge spans recorded by another tracer under the open span."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for record in spans:
            merged = dict(record, id=record["id"] + offset)
            merged["parent"] = parent if record["parent"] is None else record["parent"] + offset
            self.spans.append(merged)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as src:
        return [json.loads(line) for line in src if line.strip()]


# ---------------------------------------------------------------------------
# wrappers


def _window_points(frames, t, window) -> int:
    return sum(f.count for f in frames if t - window <= f.index <= t)


def _fsa_name(a) -> str:
    return f"aggregation.fsa_{a['division'].name}"


def _aggregation_counters(result, a) -> dict:
    window = a["division"].window if "division" in a else a["window"]
    return {"points_in": _window_points(a["frames"], a["t"], int(window)),
            "points_out": result.count}


def _write_counters(result, a) -> dict:
    root = Path(a["seq_dir"])
    files = [root / name for name in ("poses.txt", "times.txt", "calib.txt")]
    for slot in range(len(a["frames"])):
        files += [root / "velodyne" / f"{slot:06d}.bin", root / "labels" / f"{slot:06d}.label"]
    return {"bytes": sum(p.stat().st_size for p in files)}


# (module, attribute, span name or function of the bound arguments,
#  counters as a function of the result and the bound arguments)
_TARGETS = (
    ("sequence", "load_sequence", "sequence.load_sequence",
     lambda r, a: {"frames": len(r), "points": sum(f.count for f in r)}),
    ("sequence", "write_sequence", "sequence.write_sequence", _write_counters),
    ("sequence", "generate_synthetic", "sequence.generate_synthetic", None),
    ("aggregation", "aggregate_direct", "aggregation.direct", _aggregation_counters),
    ("aggregation", "aggregate_stepped", "aggregation.stepped", _aggregation_counters),
    ("aggregation", "aggregate_fsa", _fsa_name, _aggregation_counters),
    ("augment", "extract_track", "augment.extract_track",
     lambda r, a: {"points": r.total_points}),
    ("augment", "static_to_moving", "augment.static_to_moving", None),
    ("augment", "apply_switch", "augment.apply_switch", None),
    ("imaging", "aggregate_image_features", "imaging.aggregate_image_features", None),
    ("imaging", "lift_features", "imaging.lift_features",
     lambda r, a: {"offered": a["frame"].count, "lifted": r.count}),
    ("imaging", "project_to_image", "imaging.project_to_image", None),
    ("imaging", "fuse_to_voxels", "imaging.fuse_to_voxels",
     lambda r, a: {f"scale{k}": vmap.count for k, vmap in enumerate(r)}),
    ("imaging", "read_image", "imaging.read_image", lambda r, a: {"images": 1}),
    ("voxels", "voxelize", "voxels.voxelize", None),
    ("voxels", "downsample", "voxels.downsample", None),
    ("voxels", "apply_fixed_kernel", "voxels.apply_fixed_kernel", None),
    ("voxels", "save_voxel_maps", "voxels.save_voxel_maps", None),
    ("voxels", "load_voxel_maps", "voxels.load_voxel_maps", None),
    ("distill", "shared_selection", "distill.shared_selection",
     lambda r, a: {"shared": r.count, "union": a["student"].count + a["teacher"].count - r.count}),
    ("distill", "distill_loss", "distill.distill_loss", None),
)


def _wrap(tracer: Tracer, fn, name, counters):
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        with tracer.span(name(bound) if callable(name) else name) as record:
            result = fn(*args, **kwargs)
        # counted after the span closes, so counting is not billed to the stage
        if counters is not None:
            record["counters"] = counters(result, bound)
        return result

    return functools.update_wrapper(wrapper, fn)


def install(tracer: Tracer):
    """Wrap every target in every loaded ``lidarseq`` module; return an undo."""
    import lidarseq  # noqa: F401  (loads every submodule the package exports)
    from lidarseq import geometry

    modules = [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "lidarseq" or key.startswith("lidarseq."))
    ]
    undo = []
    for module_name, attr, name, counters in _TARGETS:
        original = getattr(sys.modules[f"lidarseq.{module_name}"], attr)
        wrapper = _wrap(tracer, original, name, counters)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    original_apply = geometry.Pose.apply
    geometry.Pose.apply = _wrap(
        tracer, original_apply, "geometry.pose_apply", lambda r, a: {"points": r.shape[0]}
    )
    undo.append((geometry.Pose, "apply", original_apply))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


# ---------------------------------------------------------------------------
# summaries


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part covered by its direct children (seconds)."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _root_kind(spans: list[dict]) -> dict[int, str]:
    """Name of the top-level span ("frame" or "setup") each span sits under."""
    by_id = {s["id"]: s for s in spans}
    kind = {}
    for s in spans:
        node = s
        while node["parent"] is not None:
            node = by_id[node["parent"]]
        kind[s["id"]] = node["name"]
    return kind


def layer_metrics(
    spans: list[dict],
    frames: int,
    setups: int,
    cli_walls: dict[str, list[float]],
    overhead_frac: float,
) -> dict[str, float]:
    """Per-layer metrics: frame-phase values per reference frame, set-up
    phase values per set-up, ratios over all spans of the stage."""
    selfs = self_times(spans)
    kind = _root_kind(spans)

    def total(name, key=None):
        sums = {"frame": 0.0, "setup": 0.0}
        for s in spans:
            if s["name"] == name and kind[s["id"]] in sums:
                sums[kind[s["id"]]] += selfs[s["id"]] * 1e3 if key is None else s["counters"].get(key, 0)
        return sums["frame"] / frames + sums["setup"] / setups

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric in LAYER_METRICS:
        if metric.endswith(".self_ms"):
            out[metric] = total(metric[: -len(".self_ms")])
    out["sequence.frames_decoded"] = total("sequence.load_sequence", "frames")
    out["sequence.points_decoded"] = total("sequence.load_sequence", "points")
    out["sequence.bytes_written"] = total("sequence.write_sequence", "bytes")
    out["geometry.points_transformed"] = total("geometry.pose_apply", "points")
    strategies = ("direct", "stepped", "fsa_division3", "fsa_division5")
    out["aggregation.points_in"] = sum(
        total(f"aggregation.{s}", "points_in") for s in strategies
    )
    for s in strategies:
        out[f"aggregation.{s}.points_out"] = total(f"aggregation.{s}", "points_out")
    out["aggregation.fsa_division3.keep_ratio"] = ratio(
        total("aggregation.fsa_division3", "points_out"),
        total("aggregation.fsa_division3", "points_in"),
    )
    out["augment.track_points"] = total("augment.extract_track", "points")
    out["imaging.points_lifted"] = total("imaging.lift_features", "lifted")
    out["imaging.fov_hit_rate"] = ratio(
        out["imaging.points_lifted"], total("imaging.lift_features", "offered")
    )
    out["imaging.images_read"] = total("imaging.read_image", "images")
    for k in range(3):
        out[f"voxels.scale{k}.voxels"] = total("imaging.fuse_to_voxels", f"scale{k}")
    out["distill.shared_voxels"] = total("distill.shared_selection", "shared")
    out["distill.shared_ratio"] = ratio(
        out["distill.shared_voxels"], total("distill.shared_selection", "union")
    )
    startups = [s["end"] - s["start"] for s in spans if s["name"] == "cli.startup"]
    out["cli.startup_ms"] = 1e3 * sum(startups) / len(startups) if startups else 0.0
    for command in ("synth", "aggregate", "lift", "distill"):
        walls = cli_walls.get(command, [])
        out[f"cli.{command}.ms"] = 1e3 * sum(walls) / len(walls) if walls else 0.0
    out["trace.overhead_frac"] = overhead_frac
    out["trace.coverage_frac"] = coverage(spans)
    return out


def coverage(spans: list[dict]) -> float:
    """Share of traced frame time that falls inside some layer span.

    Spans directly under a frame run one after another, so their durations
    add up without overlap.
    """
    frame_ids = {s["id"] for s in spans if s["name"] == "frame" and s["parent"] is None}
    frame_time = sum(s["end"] - s["start"] for s in spans if s["id"] in frame_ids)
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] in frame_ids)
    return covered / frame_time if frame_time else 0.0
