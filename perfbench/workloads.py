"""The two benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (the timed set-up),
runs one reference frame ``t`` in ``run_frame`` (the timed operation), and
exposes the frame's outputs to the untimed checks, digests and exact counts.
Reference frames sweep, in order, the frames that have a full window.

Inputs are made from the seed alone; ``lidarseq`` only ever sees the
generated scene (in memory, or on disk through ``lidarseq synth``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import yaml

import checks
import spans
import lidarseq as ls

WINDOW = 16
IMAGE_WINDOW = 24
STUDENT_STEP = 12
TEACHER_STEP = 4
VOXEL_SIZE = 0.1
SCALES = 3
MOVING_INSTANCE = 1
STATIC_INSTANCE = 2
CHILD_TIMEOUT_S = 60.0

# A SemanticKITTI-like class histogram: every one of the 19 training ids,
# ground and structure classes dominant, plus the raw moving-car id 252.
CLASS_FRACTIONS = {
    1: 0.05, 2: 0.01, 3: 0.01, 4: 0.01, 5: 0.01, 6: 0.01, 7: 0.01, 8: 0.01,
    9: 0.20, 10: 0.04, 11: 0.12, 12: 0.01, 13: 0.14, 14: 0.04, 15: 0.18,
    16: 0.02, 17: 0.08, 18: 0.02, 19: 0.01, 252: 0.02,
}


def scene_mapping(frames: int, points: int, seed: int, camera: tuple[int, int]) -> dict:
    """Scene spec as the mapping ``lidarseq synth`` reads from YAML.

    A moving car (class 252) and a parked car (class 10) ride on per-class
    ground planes while the ego drives and yaws.
    """
    instance_points = max(points // 100, 8)
    return {
        "frame_count": frames,
        "points_per_frame": points,
        "seed": seed,
        "classes": dict(CLASS_FRACTIONS),
        "instances": [
            {"class_id": 252, "points": instance_points, "center": [10.0, 4.0, 0.8],
             "velocity": [6.0, 0.0, 0.0], "instance_id": MOVING_INSTANCE},
            {"class_id": 10, "points": instance_points, "center": [-8.0, -5.0, 0.8],
             "instance_id": STATIC_INSTANCE},
        ],
        "ego": {"velocity": [8.0, 1.0, 0.0], "yaw_rate_deg": 6.0},
        "camera": {"width": camera[0], "height": camera[1]},
    }


def _cloud_arrays(prefix: str, agg) -> dict[str, np.ndarray]:
    return {
        f"{prefix}.xyz": agg.labeled.cloud.xyz,
        f"{prefix}.intensity": agg.labeled.cloud.intensity,
        f"{prefix}.semantic": agg.labeled.semantic,
        f"{prefix}.instance": agg.labeled.instance,
        f"{prefix}.source_frame": agg.source_frame,
        f"{prefix}.source_step": agg.source_step,
    }


class AggKitti:
    """Aggregation at KITTI scale: direct, stepped, FSA (two divisions), SMSA.

    It runs in the benchmark process; its spans come from the patched library
    functions, so ``run_frame`` and ``setup`` take a tracer only to match
    ``CliDisk``.
    """

    name = "agg-kitti"

    def __init__(self, seed: int, frames: int = 30, points: int = 120_000):
        self.seed = seed
        self.mapping = scene_mapping(frames, points, seed, (64, 48))
        self.ts = list(range(WINDOW, frames))
        self.digest_frames = len(self.ts)
        self.frames = None

    def prepare(self) -> None:
        """Drop the previous set-up's inputs before the next timed set-up."""
        self.frames = None

    def peak_frame(self, t: int):
        """Run one frame under tracemalloc; return outputs and peak bytes."""
        tracemalloc.start()
        try:
            outputs = self.run_frame(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return outputs, peak

    def storage(self) -> str:
        return "in memory"

    def close(self) -> None:
        self.prepare()

    def setup(self, tracer=None) -> None:
        spec = ls.sequence.scene_spec_from_mapping(self.mapping)
        self.frames = ls.generate_synthetic(spec)
        self.division3 = ls.division_preset("division3", WINDOW)
        self.division5 = ls.division_preset("division5", WINDOW)

    def run_frame(self, t: int, tracer=None) -> dict:
        frames = self.frames
        out = {
            "direct": ls.aggregate_direct(frames, t, WINDOW),
            "stepped": ls.aggregate_stepped(frames, t, WINDOW, 2),
            "fsa_division3": ls.aggregate_fsa(frames, t, self.division3),
            "fsa_division5": ls.aggregate_fsa(frames, t, self.division5),
        }
        track = ls.extract_track(out["fsa_division3"], STATIC_INSTANCE)
        anchors = ls.ring_anchors(track.centroids[0])
        moved = ls.static_to_moving(track, out["fsa_division3"], anchors, seed=self.seed)
        out["smsa"] = ls.apply_switch(out["fsa_division3"], track, moved)
        out["smsa_track"] = moved
        return out

    def arrays(self, out: dict) -> dict[str, np.ndarray]:
        arrays = {}
        for key in ("direct", "stepped", "fsa_division3", "fsa_division5", "smsa"):
            arrays.update(_cloud_arrays(key, out[key]))
        return arrays

    def counts(self, out: dict) -> dict[str, int]:
        counts = {
            f"{key}.points": out[key].count
            for key in ("direct", "stepped", "fsa_division3", "fsa_division5")
        }
        counts["smsa.track_points"] = out["smsa_track"].total_points
        return counts

    def check(self, t: int, out: dict) -> list[str]:
        by_index = {f.index: f for f in self.frames}
        failures = []
        expect_direct = sum(by_index[t - k].count for k in range(WINDOW + 1))
        expect_stepped = sum(by_index[t - k].count for k in range(0, WINDOW + 1, 2))
        if out["direct"].count != expect_direct:
            failures.append(f"direct has {out['direct'].count} points, frames hold {expect_direct}")
        if out["stepped"].count != expect_stepped:
            failures.append(f"stepped has {out['stepped'].count} points, frames hold {expect_stepped}")
        direct_rows = checks.RowIndex(out["direct"])
        for key in ("fsa_division3", "fsa_division5"):
            missing = direct_rows.missing_rows(out[key])
            if missing:
                failures.append(f"{key}: {missing} rows are not direct rows")
            failures += checks.present_frame_whole(out[key], by_index[t])
        failures += checks.switch_only_moves_instance(
            out["fsa_division3"], out["smsa"], STATIC_INSTANCE
        )
        if ls.classify_motion(out["smsa_track"]) != "moving":
            failures.append("switched track does not classify as moving")
        return failures


class CliError(RuntimeError):
    pass


class CliDisk:
    """The CLI on a SemanticKITTI directory, one fresh interpreter per command."""

    name = "cli-disk"

    def __init__(self, seed: int, work: Path, frames: int = 100, points: int = 40_000,
                 camera: tuple[int, int] = (320, 240), digest_frames: int = 4):
        self.seed = seed
        self.work = Path(work)
        self.mapping = scene_mapping(frames, points, seed, camera)
        self.ts = list(range(IMAGE_WINDOW, frames))
        self.digest_frames = digest_frames
        self.seq = self.work / "seq"
        self.launcher = Path(__file__).resolve().parent / "launcher.py"
        self.cli_walls: dict[str, list[float]] = {}

    def prepare(self) -> None:
        shutil.rmtree(self.seq, ignore_errors=True)
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "scene.yaml").write_text(yaml.safe_dump(self.mapping))

    def setup(self, tracer=None) -> None:
        self._cli(["synth", str(self.work / "scene.yaml"), "--out", str(self.seq),
                   "--seed", str(self.seed)], tracer)

    def _cli(self, argv: list[str], tracer=None) -> tuple[str, int]:
        """Run one command in a fresh interpreter; return stdout and peak RSS."""
        spans_file = self.work / "child-spans.jsonl"
        if tracer is None:
            cmd = [sys.executable, "-m", "lidarseq.cli", *argv]
        else:
            spans_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(self.launcher), str(spans_file), *argv]
        stderr_path = self.work / "stderr.txt"
        started = spans.clock()
        with open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                stdout = proc.stdout.read().decode()
            except BaseException:
                proc.kill()
                raise
            finally:
                # wait4 rather than Popen.wait: it also returns the child's peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
                killer.cancel()
                proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ended = spans.clock()
        if proc.returncode != 0:
            detail = stderr_path.read_text(errors="replace")[-400:].strip()
            raise CliError(f"lidarseq {argv[0]} exited {proc.returncode}: {detail}")
        if tracer is not None:
            child = spans.read_spans(spans_file)
            # interpreter start up to lidarseq.cli.main, which opens the child's root span
            tracer.record("cli.startup", started, child[0]["start"])
            tracer.adopt(child)
            self.cli_walls.setdefault(argv[0], []).append(ended - started)
        return stdout, usage.ru_maxrss * 1024

    def _outputs(self) -> dict[str, Path]:
        return {k: self.work / f"{k}.npz" for k in ("aggregate", "student", "teacher")}

    def run_frame(self, t: int, tracer=None) -> dict:
        paths = self._outputs()
        seq, frame, seed = str(self.seq), str(t), str(self.seed)
        lift = ["lift", "--sequence", seq, "--frame", frame, "--image-window", str(IMAGE_WINDOW),
                "--scales", str(SCALES), "--voxel-size", str(VOXEL_SIZE), "--seed", seed]
        commands = [
            ["aggregate", "--sequence", seq, "--frame", frame, "--strategy", "fsa",
             "--division", "division3", "--out", str(paths["aggregate"])],
            lift + ["--image-step", str(STUDENT_STEP), "--out", str(paths["student"])],
            lift + ["--image-step", str(TEACHER_STEP), "--out", str(paths["teacher"])],
            ["distill", "--student", str(paths["student"]), "--teacher", str(paths["teacher"])],
        ]
        peak = 0
        stdout = ""
        for argv in commands:
            stdout, rss = self._cli(argv, tracer)
            peak = max(peak, rss)
        return {"distill_stdout": stdout, "peak_rss": peak}

    def peak_frame(self, t: int):
        outputs = self.run_frame(t)
        return outputs, outputs["peak_rss"]

    def _load(self, key: str) -> dict[str, np.ndarray]:
        with np.load(self._outputs()[key]) as data:
            return {name: data[name] for name in data.files}

    def arrays(self, out: dict) -> dict[str, np.ndarray]:
        arrays = {}
        for key in self._outputs():
            arrays.update({f"{key}.{name}": arr for name, arr in self._load(key).items()})
        arrays["distill.stdout"] = np.frombuffer(out["distill_stdout"].encode(), dtype=np.uint8)
        return arrays

    def counts(self, out: dict) -> dict[str, int]:
        counts = {"aggregate.points": int(self._load("aggregate")["xyz"].shape[0])}
        for key in ("student", "teacher"):
            data = self._load(key)
            for level in range(int(data["map_count"])):
                counts[f"{key}.scale{level}.voxels"] = int(data[f"scale{level}_coords"].shape[0])
        return counts

    def check(self, t: int, out: dict) -> list[str]:
        frames = ls.load_sequence(self.seq, window=(t - IMAGE_WINDOW, t))
        expected = ls.aggregate_fsa(frames, t, ls.division_preset("division3", WINDOW))
        saved = self._load("aggregate")
        failures = []
        if saved["xyz"].shape[0] != expected.count:
            failures.append(
                f"aggregate --out holds {saved['xyz'].shape[0]} points, library gives {expected.count}"
            )
        elif not np.array_equal(saved["xyz"], expected.labeled.cloud.xyz):
            failures.append("aggregate --out coordinates differ from the library's")

        # The lifted points are not written out; the library lifts them again.
        calib = ls.load_camera_calib(self.seq)
        images = {
            f.index: ls.read_image(self.seq / "image_2" / f"{f.index:06d}.ppm") for f in frames
        }
        maps = {}
        for key, step in (("student", STUDENT_STEP), ("teacher", TEACHER_STEP)):
            maps[key] = ls.load_voxel_maps(self._outputs()[key])
            lifted = ls.aggregate_image_features(
                frames, images, calib, t, step=step, window=IMAGE_WINDOW
            )
            failures += checks.voxel_count_matches_points(maps[key][0], lifted.xyz)

        losses = [
            float(line.split()[1])
            for line in out["distill_stdout"].splitlines() if line.startswith("scale_")
        ]
        if len(losses) != len(maps["student"]):
            return failures + [f"distill printed {len(losses)} scale losses"]
        for s, m, loss in zip(maps["student"], maps["teacher"], losses):
            selection = ls.shared_selection(s, m)
            failures += checks.selection_is_intersection(selection, s, m)
            failures += checks.loss_matches_selection(loss, selection, s, m)
        return failures

    def storage(self) -> str:
        return filesystem_of(self.work)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/self/mountinfo."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as info:
            for line in info:
                fields = line.split()
                mount = fields[4]
                dash = fields.index("-")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[dash + 1]
    except OSError:
        pass
    return f"{fstype} at {best or '?'}"


def make(name: str, seed: int, work: Path):
    if name == "agg-kitti":
        return AggKitti(seed)
    if name == "cli-disk":
        return CliDisk(seed, work)
    raise ValueError(f"unknown workload {name!r}")
