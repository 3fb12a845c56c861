"""Command-line front end: synth | aggregate | augment | lift | distill | bench.

Exit codes: 0 success, 1 usage error, 2 data or configuration error. Every
subcommand that draws randomness takes --seed, and all outputs are
reproducible for a given seed (bench timing columns aside).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from . import aggregation, augment, bench, imaging, voxels
from .aggregation import AggregatedCloud, aggregate_direct, aggregate_fsa, aggregate_stepped
from .distill import distill_loss
from .errors import ConfigurationError, InvalidInputError, LidarSeqError, UsageError
from .imaging import (
    _IMAGE_SUFFIXES,
    _write_synthetic_image,
    aggregate_image_features,
    fuse_to_voxels,
    load_camera_calib,
    read_image,
)
from .sequence import (
    _scene_renderer,
    _write_frames,
    corrupt_labels,
    load_scene_spec,
    load_sequence,
    reference_frame,
    sequence_length,
)
from .voxels import load_voxel_maps, save_voxel_maps

# UsageError is caught before these
DATA_ERRORS = (LidarSeqError, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep codes ours
        raise UsageError(message)


def _add_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sequence", required=True, metavar="DIR",
                        help="SemanticKITTI-format sequence directory")


def _resolve_division(spec: str, window: int | None = None):
    # a bad --division is an argument problem, not a data problem
    try:
        return aggregation.resolve_division(spec, window)
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from None


class _SequenceImages(Mapping):
    """Frame index -> its image under image_2/, read at each lookup and kept
    by no one here, so that the lifting holds one image at a time."""

    def __init__(self, seq_dir, indices):
        self.image_dir, self.indices = Path(seq_dir) / "image_2", sorted(indices)

    def __getitem__(self, index):
        if index not in self.indices:
            raise KeyError(index)
        stem = self.image_dir / f"{index:06d}"
        for candidate in map(stem.with_suffix, _IMAGE_SUFFIXES):
            if candidate.exists():
                return read_image(candidate)
        passed_over = imaging._png_note(self.image_dir.glob(f"{stem.name}.png"))
        raise InvalidInputError(f"no image for frame {index} under {self.image_dir}{passed_over}")

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


def _load_source(args, steps, window: int):
    """The frames of --sequence that a sampler with ``steps`` and ``window``
    reads at the reference frame t (``aggregation.sampled_frames``), by
    ascending index; and t. Only those are decoded, and no camera is read."""
    t = reference_frame(args.sequence, args.frame, sequence_length(args.sequence))
    return load_sequence(args.sequence, indices=sorted(aggregation.sampled_frames(t, steps, window))), t


def _corrupted_past(frames, t: int, rate: float, seed: int):
    """Simulated historical predictions: resample past labels, keep t as-is."""
    if rate == 0.0:
        return frames
    return [
        frame if frame.index == t else corrupt_labels(frame, rate, seed + frame.index)
        for frame in frames
    ]


def _save_cloud(path, agg: AggregatedCloud) -> None:
    np.savez(
        path,
        xyz=np.ascontiguousarray(agg.labeled.cloud.xyz),  # row-major: F order would change the npy bytes
        intensity=agg.labeled.cloud.intensity,
        semantic=agg.labeled.semantic,
        instance=agg.labeled.instance,
        source_frame=agg.source_frame,
        source_step=agg.source_step,
        reference_frame=np.int64(agg.reference_frame),
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    spec = load_scene_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    out, calib, render = Path(args.out), spec.camera.calib(), _scene_renderer(spec)
    (out / "image_2").mkdir(parents=True, exist_ok=True)
    # one coordinate buffer per thread of the runner, which gives slot k to thread
    # k % 2: each frame is written before its thread computes the next into it
    buffers = np.empty((2, 3, spec.points_per_frame))

    def frame(slot):
        _write_synthetic_image(out / "image_2" / f"{slot:06d}.ppm", calib, slot, spec.seed)
        return render(slot, buffers[slot % 2])

    _write_frames(out, spec.frame_count, frame, calib)
    print(f"wrote {spec.frame_count} frames ({spec.frame_count * spec.points_per_frame} points) to {out}")
    return 0


def _cmd_aggregate(args) -> int:
    if args.strategy == "fsa":
        # --window overrides the division's own window only when given
        division = _resolve_division(args.division, args.window)
        window = division.window
        steps = aggregation.walked_steps(division.groups, division.default_step)
    else:
        window = aggregation.DEFAULT_WINDOW if args.window is None else args.window
        steps = [args.step if args.strategy == "stepped" else 1]
    frames, t = _load_source(args, steps, window)
    frames = _corrupted_past(frames, t, args.label_error_rate, args.seed)
    if args.strategy == "direct":
        agg = aggregate_direct(frames, t, window)
    elif args.strategy == "stepped":
        agg = aggregate_stepped(frames, t, window, args.step)
    else:
        agg = aggregate_fsa(frames, t, division)
    del frames  # so the row-major copy that --out writes reuses the sweeps' memory
    if args.out:
        _save_cloud(args.out, agg)
    past = int((agg.source_step > 0).sum())
    print(
        f"{args.strategy}: {agg.count} points at t={agg.reference_frame} "
        f"(window {window}, {past} temporal)"
    )
    return 0


def _cmd_augment(args) -> int:
    before, after, count = augment.switch_sequence(
        args.sequence, args.out, args.instance, args.switch, frame=args.frame, threshold=args.threshold,
        ring_radius=args.ring_radius, seed=args.seed,
    )
    print(f"switched instance {args.instance} {before} -> {after}; wrote {count} frames to {args.out}")
    return 0


def _cmd_lift(args) -> int:
    # only the present frame and the sampled t - offset frames are read; a
    # step the lifting rejects loads t alone and the library reports it
    steps = [args.image_step] if args.image_step > 0 else []
    frames, t = _load_source(args, steps, args.image_window)
    # lift alone projects, so it alone reads a camera: its own images of the loaded frames
    calib = load_camera_calib(args.sequence)
    images = _SequenceImages(args.sequence, (f.index for f in frames))
    lifted = aggregate_image_features(
        frames, images, calib, t, step=args.image_step, window=args.image_window
    )
    fused = fuse_to_voxels(
        lifted, scales=args.scales, seed=args.seed, voxel_size=args.voxel_size
    )
    if args.out:
        save_voxel_maps(args.out, fused)
    counts = ", ".join(str(m.count) for m in fused)
    print(
        f"lifted {lifted.count} points from {len(set(lifted.source_frame.tolist()))} frames; "
        f"fused voxels per scale: {counts}"
    )
    return 0


def _cmd_distill(args) -> int:
    student = load_voxel_maps(args.student)
    teacher = load_voxel_maps(args.teacher)
    if len(student) != len(teacher):
        raise ConfigurationError(
            f"student has {len(student)} scales, teacher has {len(teacher)}"
        )
    losses = [distill_loss(s, t) for s, t in zip(student, teacher)]
    for level, value in enumerate(losses):
        print(f"scale_{level} {value!r}")
    print(f"mean {sum(losses) / len(losses)!r}")
    return 0


def _parse_window(entry: str) -> int:
    try:
        return int(entry)
    except ValueError:
        raise UsageError(f"bad window {entry.strip()!r} in --windows") from None


def _cmd_bench(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    windows = [_parse_window(w) for w in args.windows.split(",") if w.strip()]
    frames, t = _load_source(args, [1], max(windows, default=0))
    division = None
    if any(s == "fsa" for s in strategies):
        division = _resolve_division(args.division)
    report = bench.run_bench(
        frames,
        strategies,
        t_values=[t],
        windows=windows,
        division=division,
        repeats=args.repeats,
    )
    text = report.to_machine() if args.format == "machine" else report.to_table()
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lidarseq", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("synth", parents=[], help="render a synthetic scene spec to disk")
    p.add_argument("spec", help="scene spec YAML")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--seed", type=int, default=None, help="replaces the spec's seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("aggregate", help="aggregate temporal sweeps into one cloud")
    _add_source(p)
    p.add_argument("--frame", type=int, default=None, help="reference frame t (default: last)")
    p.add_argument("--window", type=int, default=None,
                   help="history in frames (default: the division's window for fsa, "
                        f"{aggregation.DEFAULT_WINDOW} otherwise)")
    p.add_argument("--strategy", choices=("direct", "stepped", "fsa"), default="fsa")
    p.add_argument("--step", type=int, default=2, help="step for --strategy stepped")
    p.add_argument("--division", default="division3", help="preset name or YAML path")
    p.add_argument("--label-error-rate", type=float, default=0.0,
                   help="simulate historical predictions on past frames")
    p.add_argument("--seed", type=int, default=0, help="seed of the label corruption")
    p.add_argument("--out", default=None, help="write the cloud to this .npz")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("augment", help="switch an instance's motion state")
    _add_source(p)
    p.add_argument("--frame", type=int, default=None)
    p.add_argument("--instance", type=int, required=True)
    p.add_argument("--switch", choices=augment.SWITCHES, required=True)
    p.add_argument("--threshold", type=float, default=augment.DEFAULT_MOTION_THRESHOLD,
                   help="motion threshold (m)")
    p.add_argument("--ring-radius", type=float, default=augment.DEFAULT_RING_RADIUS,
                   help="anchor ring radius (m)")
    p.add_argument("--seed", type=int, default=0, help="seed of the switch")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("lift", help="lift image features and fuse to voxel maps")
    _add_source(p)
    p.add_argument("--frame", type=int, default=None)
    p.add_argument("--image-step", type=int, default=imaging.DEFAULT_IMAGE_STEP)
    p.add_argument("--image-window", type=int, default=imaging.DEFAULT_IMAGE_WINDOW)
    p.add_argument("--scales", type=int, default=3)
    p.add_argument("--voxel-size", type=float, default=voxels.DEFAULT_VOXEL_SIZE)
    p.add_argument("--seed", type=int, default=0, help="seed of the fusion kernels")
    p.add_argument("--out", default=None, help="write fused maps to this .npz")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("distill", help="loss between two voxel-map dumps")
    p.add_argument("--student", required=True, metavar="NPZ")
    p.add_argument("--teacher", required=True, metavar="NPZ")
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("bench", help="compare aggregation strategies")
    _add_source(p)
    p.add_argument("--frame", type=int, default=None)
    p.add_argument("--strategies", default="direct,fsa",
                   help="comma-separated: direct, stepped:<s>, fsa")
    p.add_argument("--windows", default="16", help="comma-separated window sizes")
    p.add_argument("--division", default="division3")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        if not argv:
            parser.print_help(sys.stderr)
            return 1
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:  # before anything is read
            raise UsageError(f"argument --seed: must be >= 0, got {args.seed}")
        if not hasattr(args, "func"):
            parser.print_help(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if code is not None else 0
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
