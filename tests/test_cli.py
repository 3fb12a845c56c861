"""CLI behavior: exit codes, reproducibility, end-to-end subcommand wiring."""

import dataclasses
import json
import math
import shutil
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
import yaml

from lidarseq import cli, imaging
from lidarseq import sequence as seqio
from lidarseq.aggregation import (
    DEFAULT_WINDOW,
    DIVISION_PRESET_NAMES,
    aggregate_direct,
    aggregate_fsa,
    aggregate_stepped,
    division_preset,
    load_division,
)
from lidarseq.augment import (
    DEFAULT_MOTION_THRESHOLD,
    DEFAULT_RING_RADIUS,
    classify_motion,
    extract_track,
)
from lidarseq.cli import main
from lidarseq.errors import ConfigurationError, InvalidSpecError
from lidarseq.imaging import (
    DEFAULT_IMAGE_STEP,
    DEFAULT_IMAGE_WINDOW,
    aggregate_image_features,
    fuse_to_voxels,
    load_camera_calib,
    read_image,
)
from lidarseq.geometry import Pose
from lidarseq.sequence import (
    CameraCalib,
    corrupt_labels,
    generate_synthetic,
    load_scene_spec,
    load_sequence,
    scene_spec_from_mapping,
    write_sequence,
)
from lidarseq.voxels import DEFAULT_VOXEL_SIZE, load_voxel_maps

SPEC = {
    "frame_count": 6,
    "points_per_frame": 500,
    "classes": {40: 0.6, 252: 0.2, 10: 0.2},
    "instances": [
        {
            "class_id": 252,
            "points": 80,
            "center": [8.0, 2.0, 0.8],
            "velocity": [2.0, 0.0, 0.0],
            "instance_id": 5,
        }
    ],
    "ego": {"velocity": [1.0, 0.0, 0.0]},
    "seed": 3,
    "extent": 25.0,
}


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(SPEC))
    return path


@pytest.fixture()
def seq_dir(tmp_path, spec_path):
    out = tmp_path / "seq"
    assert main(["synth", str(spec_path), "--out", str(out)]) == 0
    return out


def _without_p2(seq_dir, out):
    """A copy of the sequence whose calib.txt has no P2 line."""
    shutil.copytree(seq_dir, out)
    lines = (out / "calib.txt").read_text().splitlines(True)
    (out / "calib.txt").write_text("".join(line for line in lines if not line.startswith("P2:")))
    return out


class TestTopLevel:
    def test_no_arguments_prints_usage_and_fails(self, capsys):
        assert main([]) == 1
        assert "COMMAND" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "aggregate" in capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_defaults_come_from_the_library_constants(self):
        parser = cli.build_parser()
        lift = parser.parse_args(["lift", "--sequence", "seq"])
        assert lift.image_step == DEFAULT_IMAGE_STEP
        assert lift.image_window == DEFAULT_IMAGE_WINDOW
        assert lift.voxel_size == DEFAULT_VOXEL_SIZE
        switch = parser.parse_args(["augment", "--sequence", "seq", "--instance", "1",
                                    "--switch", "moving-to-static", "--out", "o"])
        assert switch.threshold == DEFAULT_MOTION_THRESHOLD
        assert switch.ring_radius == DEFAULT_RING_RADIUS

    def test_each_subcommand_has_exactly_its_options(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        options = {
            name: sorted(o for a in sub._actions for o in a.option_strings if o.startswith("--"))
            for name, sub in commands.items()
        }
        windowed = ["--frame", "--help", "--out", "--sequence"]
        assert options == {
            "synth": ["--help", "--out", "--seed"],
            "aggregate": sorted(windowed + ["--division", "--label-error-rate", "--seed",
                                            "--step", "--strategy", "--window"]),
            "augment": sorted(windowed + ["--instance", "--ring-radius", "--seed", "--switch",
                                          "--threshold"]),
            "lift": sorted(windowed + ["--image-step", "--image-window", "--scales", "--seed",
                                       "--voxel-size"]),
            "distill": ["--help", "--student", "--teacher"],
            "bench": sorted(windowed + ["--division", "--format", "--repeats", "--strategies",
                                        "--windows"]),
        }
        # --seed has one meaning per command; only synth's falls back to the spec's own
        seeds = {name: sub.get_default("seed") for name, sub in commands.items()}
        assert seeds == {"synth": None, "aggregate": 0, "augment": 0, "lift": 0,
                         "distill": None, "bench": None}


class TestSynth:
    def test_writes_a_loadable_sequence_with_images(self, seq_dir):
        frames = load_sequence(seq_dir)
        assert len(frames) == 6
        assert sum(f.count for f in frames) == 6 * 500
        images = sorted(p.name for p in (seq_dir / "image_2").iterdir())
        assert images == [f"{i:06d}.ppm" for i in range(6)]

    def test_seed_override_changes_the_scene(self, tmp_path, spec_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["synth", str(spec_path), "--out", str(a), "--seed", "9"]) == 0
        assert main(["synth", str(spec_path), "--out", str(b), "--seed", "9"]) == 0
        assert main(["synth", str(spec_path), "--out", str(c), "--seed", "10"]) == 0
        bin_a = (a / "velodyne" / "000000.bin").read_bytes()
        assert bin_a == (b / "velodyne" / "000000.bin").read_bytes()
        assert bin_a != (c / "velodyne" / "000000.bin").read_bytes()

    def test_bad_spec_is_a_data_error(self, tmp_path, capsys):
        cases = {
            "bad.yaml": "frame_count: 0\npoints_per_frame: 10\nclasses: {40: 1.0}\n",
            "syntax.yaml": "classes: {9: [\n",
            "ego.yaml": yaml.safe_dump({**SPEC, "ego": 5}),
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text)
            assert main(["synth", str(path), "--out", str(tmp_path / "x")]) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_coerced_spec_values_are_data_errors(self, tmp_path, capsys):
        # a value is taken as written: never rounded, never parsed from a string
        base = {"frame_count": 3, "points_per_frame": 120, "classes": {1: 0.5, 9: 0.5}}
        instance = {"class_id": 1, "points": 5.5, "center": [1.0, 2.0, 0.0]}
        cases = {
            "frame_count": ({**base, "frame_count": 2.5}, "frame_count must be an integer, got 2.5"),
            "seed": ({**base, "seed": "7"}, "seed must be an integer, got '7'"),
            "width": ({**base, "camera": {"width": 32.7}}, "width must be an integer, got 32.7"),
            "points": ({**base, "instances": [{**instance, "points": 5}, instance]},
                       "instance 1: points must be an integer, got 5.5"),
            "fractional_class": ({**base, "classes": {1.9: 1.0}}, "classes must map integer class ids"),
            "quoted_class": ({**base, "classes": {"9": 1.0}}, "classes must map integer class ids"),
        }
        for name, (mapping, message) in cases.items():
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(mapping))
            with pytest.raises(InvalidSpecError) as info:
                load_scene_spec(path)
            assert str(info.value).startswith(f"{path}: ") and message in str(info.value)
            assert main(["synth", str(path), "--out", str(tmp_path / name)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


    def test_label_ids_outside_16_bits_are_data_errors(self, tmp_path, capsys):
        # the 16-bit fields would wrap them to 4464 and 65533; the spec is
        # rejected where it is read, naming the file and the key
        field = "must lie in the 16-bit label field [0, 65535], got"
        instance = SPEC["instances"][0]
        cases = {
            "class": ({**SPEC, "classes": {70000: 0.6, 252: 0.4}}, f"classes {field} 70000"),
            "negative": ({**SPEC, "classes": {-3: 0.6, 252: 0.4}}, f"classes {field} -3"),
            "instance": ({**SPEC, "instances": [{**instance, "instance_id": 70000}]},
                         f"instance 0: instance_id {field} 70000"),
            "instance_class": ({**SPEC, "instances": [{**instance, "class_id": 65536}]},
                               f"instance 0: class_id {field} 65536"),
        }
        for name, (mapping, message) in cases.items():
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(mapping))
            out = tmp_path / name
            assert main(["synth", str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {path}: {message}\n"
            assert not out.exists()  # so no velodyne/ file either

    def test_camera_size_must_be_positive(self, tmp_path, capsys):
        cases = {
            "width": ({**SPEC, "camera": {"width": 0}}, "camera width must be positive, got 0"),
            "height": ({**SPEC, "camera": {"width": 32, "height": -4}},
                       "camera height must be positive, got -4"),
        }
        for name, (mapping, message) in cases.items():
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(mapping))
            out = tmp_path / name
            assert main(["synth", str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {path}: {message}\n"
            assert not out.exists()

    def test_spec_numbers_must_be_finite(self, tmp_path, capsys):
        # checked where the spec is read, so no output directory appears
        instance = SPEC["instances"][0]
        cases = {
            "infinite_extent": ({**SPEC, "extent": math.inf}, "extent must be finite, got inf"),
            "negative_extent": ({**SPEC, "extent": -5}, "extent must be non-negative, got -5.0"),
            "center": ({**SPEC, "instances": [{**instance, "center": [math.inf, 0, 0]}]},
                       "instance 0: center must be finite, got inf"),
            "ego_velocity": ({**SPEC, "ego": {"velocity": [math.nan, 0, 0]}}, "velocity must be finite, got nan"),
        }
        for name, (mapping, message) in cases.items():
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(mapping))
            out = tmp_path / name
            assert main(["synth", str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {path}: {message}\n"
            assert not out.exists()

    def test_output_equals_the_library_path(self, tmp_path):
        # frame-by-frame synth writes the bytes of generate_synthetic, then
        # write_sequence, then write_image of each synthetic_feature_image
        mapping = {**SPEC, "camera": {"width": 40, "height": 30}}
        path = tmp_path / "scene.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["synth", str(path), "--out", str(tmp_path / "cli")]) == 0
        spec = scene_spec_from_mapping(mapping)
        calib = spec.camera.calib()
        library = tmp_path / "library"
        write_sequence(library, generate_synthetic(spec), calib)
        (library / "image_2").mkdir()
        for index in range(spec.frame_count):
            image = imaging.synthetic_feature_image(calib, index, 3, spec.seed)
            imaging.write_image(library / "image_2" / f"{index:06d}.ppm", image)

        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        got, want = tree(tmp_path / "cli"), tree(library)
        assert len(want) == 3 + 3 * spec.frame_count
        assert got == want

    def test_peak_memory_does_not_grow_with_frame_count(self, tmp_path):
        # a memory bound, not a timing: synth holds about one frame at a time
        points = 5_000

        def peak(frames: int) -> int:
            path = tmp_path / f"scene{frames}.yaml"
            path.write_text(yaml.safe_dump({**SPEC, "frame_count": frames, "points_per_frame": points}))
            tracemalloc.start()
            try:
                assert main(["synth", str(path), "--out", str(tmp_path / f"out{frames}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # warm-up: the first call's imports and caches are not frames
        small, large = peak(16), peak(64)
        frame_coords = points * 3 * 8
        assert large < small + 2 * frame_coords, (small, large)

    def test_default_camera_matches_write_sequence(self, seq_dir, spec_path, tmp_path):
        # SPEC has no camera key, and write_sequence without a calibration
        # takes the same default camera
        assert "camera" not in SPEC
        plain = tmp_path / "plain"
        write_sequence(plain, generate_synthetic(load_scene_spec(spec_path)))
        assert (plain / "calib.txt").read_bytes() == (seq_dir / "calib.txt").read_bytes()
        synth, default = load_camera_calib(seq_dir), seqio.default_camera_calib()
        assert (synth.width, synth.height) == (default.width, default.height) == (64, 48)


class TestAggregate:
    def test_fsa_dump_matches_the_library(self, seq_dir, tmp_path, capsys):
        out = tmp_path / "cloud.npz"
        code = main(
            ["aggregate", "--sequence", str(seq_dir), "--window", "4",
             "--strategy", "fsa", "--division", "division2", "--out", str(out)]
        )
        assert code == 0
        assert "points at t=5" in capsys.readouterr().out
        frames = load_sequence(seq_dir)
        want = aggregate_fsa(frames, 5, division_preset("division2", window=4))
        dump = np.load(out)
        assert np.array_equal(dump["xyz"], want.labeled.cloud.xyz)
        assert np.array_equal(dump["semantic"], want.labeled.semantic)
        assert np.array_equal(dump["source_frame"], want.source_frame)
        assert np.array_equal(dump["source_step"], want.source_step)
        assert int(dump["reference_frame"]) == 5
        # column-stored in memory, row-major on disk
        with zipfile.ZipFile(out) as archive, archive.open("xyz.npy") as member:
            assert np.lib.format.read_magic(member) == (1, 0)
            assert np.lib.format.read_array_header_1_0(member)[1] is False  # fortran_order

    def test_label_corruption_spares_the_present_frame(self, seq_dir, tmp_path):
        out_a = tmp_path / "a.npz"
        out_b = tmp_path / "b.npz"
        base = tmp_path / "clean.npz"
        args = ["aggregate", "--sequence", str(seq_dir), "--window", "5",
                "--strategy", "direct", "--label-error-rate", "0.3", "--seed", "4"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert main(["aggregate", "--sequence", str(seq_dir), "--window", "5",
                     "--strategy", "direct", "--out", str(base)]) == 0
        noisy = np.load(out_a)
        clean = np.load(base)
        assert np.array_equal(noisy["semantic"], np.load(out_b)["semantic"])
        present = noisy["source_step"] == 0
        assert np.array_equal(noisy["semantic"][present], clean["semantic"][present])
        past = ~present
        assert (noisy["semantic"][past] != clean["semantic"][past]).any()
        assert np.array_equal(noisy["xyz"], clean["xyz"])

    def test_unknown_division_is_a_usage_error(self, seq_dir, capsys):
        code = main(["aggregate", "--sequence", str(seq_dir), "--strategy", "fsa",
                     "--division", "division99"])
        assert code == 1
        err = capsys.readouterr().err
        assert "division1" in err and "division5" in err

    def test_malformed_division_file_is_a_usage_error(self, seq_dir, tmp_path, capsys):
        good = "  - classes: [1]\n    step: 2\n"
        cases = {
            "no_step": ("groups:\n" + good + "  - classes: [9]\n", "group 1"),
            "scalar_groups": ("groups: 5\n", "'groups' list"),
            "no_threshold": (
                "groups:\n" + good
                + "  - classes: [9]\n    step: 2\n    distance_split: {near_step_multiplier: 2}\n",
                "group 1",
            ),
            "yaml_syntax": ("groups: [\n", "not valid YAML"),
            "bad_window": ("window: abc\ngroups:\n" + good, "window must be an integer, got 'abc'"),
            "fractional_window": ("window: 2.5\ngroups:\n" + good, "window must be an integer"),
            "inf_window": ("window: .inf\ngroups:\n" + good, "window must be an integer"),
            "zero_window": ("window: 0\ngroups:\n" + good, "window must be a positive integer"),
            "class_in_two_groups": (
                "groups:\n" + good + "  - classes: [9, 1]\n    step: 4\n",
                "class 1 appears in groups 0 and 1",
            ),
            # a misspelt optional key used to leave its default in place silently
            "top_level_typo": ("defualt_step: 1\ngroups:\n" + good, "unknown top-level key 'defualt_step'"),
            "group_typo": ("groups:\n" + good + "    stpe: 4\n", "group 0: unknown group key 'stpe'"),
            "split_typo": (
                "groups:\n" + good + "    distance_split: {threshold_m: 5.0, near_multiplier: 3}\n",
                "group 0: unknown distance_split key 'near_multiplier'",
            ),
        }
        for name, (text, where) in cases.items():
            path = tmp_path / f"{name}.yaml"
            path.write_text(text)
            with pytest.raises(ConfigurationError, match=where):
                load_division(path)
            code = main(["aggregate", "--sequence", str(seq_dir), "--strategy", "fsa",
                         "--division", str(path)])
            assert code == 1
            err = capsys.readouterr().err
            assert path.name in err and where in err

    def test_coerced_division_values_are_usage_errors(self, seq_dir, tmp_path, capsys):
        # a value is taken as written: never rounded, never parsed from a string
        split = "  - classes: [1]\n    step: 2\n    distance_split: "
        cases = {
            "fractional_class": ("  - classes: [1.5]\n    step: 2\n", "classes must be integers, got 1.5"),
            "quoted_class": ("  - classes: ['3']\n    step: 2\n", "classes must be integers, got '3'"),
            "boolean_step": ("  - classes: [1]\n    step: true\n",
                             "step must be a positive integer or infinite, got True"),
            "fractional_multiplier": (split + "{threshold_m: 5.0, near_step_multiplier: 2.5}\n",
                                      "near_step_multiplier must be an integer, got 2.5"),
            "quoted_threshold": (split + "{threshold_m: '5'}\n", "threshold_m must be a number, got '5'"),
        }
        for name, (group, message) in cases.items():
            path = tmp_path / f"{name}.yaml"
            path.write_text("groups:\n" + group)
            with pytest.raises(ConfigurationError) as info:
                load_division(path)
            assert str(info.value) == f"{path}: group 0: {message}"
            code = main(["aggregate", "--sequence", str(seq_dir), "--strategy", "fsa",
                         "--division", str(path)])
            assert code == 1
            assert capsys.readouterr().err == f"usage error: {path}: group 0: {message}\n"

    def test_division_threshold_must_be_finite(self, seq_dir, tmp_path, capsys):
        path = tmp_path / "far.yaml"
        path.write_text("groups:\n  - classes: [1]\n    step: 2\n    distance_split: {threshold_m: .inf}\n")
        message = f"{path}: group 0: threshold_m must be finite, got inf"
        with pytest.raises(ConfigurationError) as info:
            load_division(path)
        assert str(info.value) == message
        assert main(["aggregate", "--sequence", str(seq_dir), "--division", str(path)]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_malformed_sequence_files_are_data_errors(self, seq_dir, capsys):
        times = seq_dir / "times.txt"
        listed = times.read_text().splitlines()
        times.write_text("\n".join(listed[:-1]) + "\n")
        assert main(["aggregate", "--sequence", str(seq_dir)]) == 2
        assert "times.txt: 5 times for 6 frames" in capsys.readouterr().err
        times.write_text("\n".join(listed) + "\n")
        target = seq_dir / "velodyne" / "000005.bin"
        data = np.frombuffer(target.read_bytes(), dtype="<f4").reshape(-1, 4).copy()
        data[0, 3] = -0.5
        target.write_bytes(data.tobytes())
        assert main(["aggregate", "--sequence", str(seq_dir)]) == 2
        assert "000005.bin: intensity values must lie in [0, 1]" in capsys.readouterr().err

    def test_missing_sequence_dir_is_a_data_error(self, tmp_path):
        assert main(["aggregate", "--sequence", str(tmp_path / "nope")]) == 2

    def test_missing_frame_file_names_the_frame_and_file(self, seq_dir, capsys):
        victim = seq_dir / "labels" / "000001.label"
        victim.unlink()
        assert main(["aggregate", "--sequence", str(seq_dir)]) == 2
        assert capsys.readouterr().err == f"error: {victim}: no such file for frame 1\n"

    def test_out_of_range_frame_is_a_data_error(self, seq_dir, tmp_path, capsys):
        augment = ["--instance", "5", "--switch", "moving-to-static", "--out", str(tmp_path / "a")]
        for command, extra in (("aggregate", []), ("lift", []), ("bench", []), ("augment", augment)):
            for frame in ("42", "6", "-1"):
                assert main([command, "--sequence", str(seq_dir), "--frame", frame, *extra]) == 2
                err = capsys.readouterr().err
                assert f"frame {frame} " in err and "sequence of 6 frames" in err

    def test_source_is_required_and_exclusive(self, seq_dir, spec_path, capsys):
        # a sequence directory is the one source; a scene spec goes through synth first
        assert main(["aggregate"]) == 1
        assert "--sequence" in capsys.readouterr().err
        assert main(["aggregate", "--synth", str(spec_path)]) == 1
        assert main(["aggregate", "--sequence", str(seq_dir), "--synth", str(spec_path)]) == 1

    def test_division_file_window_is_used_unless_overridden(self, seq_dir, tmp_path, capsys):
        path = tmp_path / "narrow.yaml"
        path.write_text("window: 2\ngroups:\n  - classes: [40, 252, 10]\n    step: 1\n")
        frames = load_sequence(seq_dir)
        for extra, window in (([], 2), (["--window", "4"], 4)):
            out = tmp_path / f"w{window}.npz"
            assert main(["aggregate", "--sequence", str(seq_dir), "--strategy", "fsa",
                         "--division", str(path), "--out", str(out), *extra]) == 0
            want = aggregate_fsa(frames, 5, load_division(path).with_window(window))
            assert want.count == 500 * (window + 1)
            assert np.load(out)["xyz"].shape[0] == want.count
            assert f"(window {window}," in capsys.readouterr().out

    def test_direct_and_stepped_default_to_the_default_window(self, seq_dir, capsys):
        for strategy in ("direct", "stepped"):
            assert main(["aggregate", "--sequence", str(seq_dir), "--strategy", strategy]) == 0
            assert f"(window {DEFAULT_WINDOW}," in capsys.readouterr().out


class TestAugment:
    def test_moving_to_static_round_trips_through_disk(self, seq_dir, tmp_path):
        out = tmp_path / "switched"
        code = main(["augment", "--sequence", str(seq_dir), "--instance", "5",
                     "--switch", "moving-to-static", "--out", str(out)])
        assert code == 0
        before = load_sequence(seq_dir)
        after = load_sequence(out)
        assert len(after) == len(before)
        # untouched points keep their exact payload bytes, labels flip to the
        # static class id, and the rewritten track really is static
        for fb, fa in zip(before, after):
            keep = fb.labeled.instance != 5
            assert np.array_equal(fa.labeled.cloud.xyz[keep], fb.labeled.cloud.xyz[keep])
            assert np.array_equal(fa.labeled.semantic[keep], fb.labeled.semantic[keep])
            moved = ~keep
            assert set(fa.labeled.semantic[moved].tolist()) == {10}
        agg = aggregate_direct(after, t=5, window=5)
        assert classify_motion(extract_track(agg, 5)) == "static"

    def test_output_keeps_the_source_calibration(self, tmp_path):
        # a non-default Tr and no image_2/, as for scans without the image download
        rot = np.eye(3)[[1, 2, 0]]
        calib = CameraCalib(fx=300.0, fy=310.0, cx=160.5, cy=90.25, width=320, height=180,
                            extrinsic=Pose.from_rotation_translation(rot, np.array([0.3, -0.1, 0.7])))
        source, out = tmp_path / "no-images", tmp_path / "switched"
        write_sequence(source, generate_synthetic(scene_spec_from_mapping(SPEC)), calib)
        assert main(["augment", "--sequence", str(source), "--instance", "5",
                     "--switch", "moving-to-static", "--out", str(out)]) == 0
        assert (out / "calib.txt").read_bytes() == (source / "calib.txt").read_bytes()
        for before, after in zip(load_sequence(source), load_sequence(out), strict=True):
            assert np.array_equal(before.pose.matrix, after.pose.matrix)
            keep = before.labeled.instance != 5
            assert np.array_equal(before.labeled.cloud.xyz[keep], after.labeled.cloud.xyz[keep])

    def test_output_poses_follow_the_source_tr(self, tmp_path):
        # a turning ego, whose poses.txt rows depend on Tr's rotation
        rot = np.eye(3)[[1, 2, 0]]
        calib = dataclasses.replace(seqio.default_camera_calib(),
                                    extrinsic=Pose.from_rotation_translation(rot, np.array([0.3, -0.1, 0.7])))
        turning = {**SPEC, "ego": {"velocity": [1.0, 0.0, 0.0], "yaw_rate_deg": 30.0}}
        source, out = tmp_path / "turning", tmp_path / "switched"
        write_sequence(source, generate_synthetic(scene_spec_from_mapping(turning)), calib)
        assert main(["augment", "--sequence", str(source), "--instance", "5",
                     "--switch", "moving-to-static", "--out", str(out)]) == 0
        assert (out / "poses.txt").read_bytes() == (source / "poses.txt").read_bytes()
        for before, after in zip(load_sequence(source), load_sequence(out), strict=True):
            assert np.array_equal(before.pose.matrix, after.pose.matrix)

    def test_threshold_reaches_the_relabelling(self, tmp_path):
        # 0.05 m of motion over six frames: moving only below the default threshold
        slow = {**SPEC, "instances": [{**SPEC["instances"][0], "velocity": [0.1, 0.0, 0.0]}]}
        spec, seq, out = tmp_path / "slow.yaml", tmp_path / "slow", tmp_path / "switched"
        spec.write_text(yaml.safe_dump(slow))
        assert main(["synth", str(spec), "--out", str(seq)]) == 0
        assert main(["augment", "--sequence", str(seq), "--instance", "5", "--threshold", "0.02",
                     "--switch", "moving-to-static", "--out", str(out)]) == 0
        for frame in load_sequence(out):
            assert set(frame.labeled.semantic[frame.labeled.instance == 5].tolist()) == {10}

    def test_output_can_be_lifted(self, seq_dir, tmp_path):
        # to a new directory, and in place over a copy of the source
        in_place = tmp_path / "in-place"
        shutil.copytree(seq_dir, in_place)
        names = sorted(p.name for p in (seq_dir / "image_2").iterdir())
        for source, out in ((seq_dir, tmp_path / "switched"), (in_place, in_place)):
            assert main(["augment", "--sequence", str(source), "--instance", "5",
                         "--switch", "moving-to-static", "--out", str(out)]) == 0
            assert main(["lift", "--sequence", str(out), "--image-step", "2",
                         "--image-window", "4", "--voxel-size", "0.4"]) == 0
            assert sorted(p.name for p in (out / "image_2").iterdir()) == names
            for name in names:
                assert (out / "image_2" / name).read_bytes() == (seq_dir / "image_2" / name).read_bytes()

    def test_wrong_direction_is_a_data_error(self, seq_dir, tmp_path, capsys):
        code = main(["augment", "--sequence", str(seq_dir), "--instance", "5",
                     "--switch", "static-to-moving", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "already moving" in capsys.readouterr().err

    def test_unknown_instance_is_a_data_error(self, seq_dir, tmp_path):
        code = main(["augment", "--sequence", str(seq_dir), "--instance", "77",
                     "--switch", "moving-to-static", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_static_to_moving_is_seed_reproducible(self, tmp_path, spec_path):
        spec = dict(SPEC)
        spec["instances"] = [
            {"class_id": 10, "points": 80, "center": [8.0, 2.0, 0.8],
             "velocity": [0.0, 0.0, 0.0], "instance_id": 5}
        ]
        static_spec = tmp_path / "static.yaml"
        static_spec.write_text(yaml.safe_dump(spec))
        seq = tmp_path / "seq2"
        assert main(["synth", str(static_spec), "--out", str(seq)]) == 0
        out_a, out_b = tmp_path / "sa", tmp_path / "sb"
        args = ["augment", "--sequence", str(seq), "--instance", "5",
                "--switch", "static-to-moving", "--seed", "11"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("velodyne/000002.bin", "labels/000002.label"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        agg = aggregate_direct(load_sequence(out_a), t=5, window=5)
        track = extract_track(agg, 5)
        assert classify_motion(track) == "moving"
        assert set(agg.labeled.semantic[agg.labeled.instance == 5].tolist()) == {252}


class TestLift:
    def test_reads_images_and_writes_fused_maps(self, seq_dir, tmp_path, capsys):
        out = tmp_path / "maps.npz"
        code = main(["lift", "--sequence", str(seq_dir), "--image-step", "2",
                     "--image-window", "4", "--scales", "3", "--voxel-size", "0.4",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        assert "fused voxels per scale" in capsys.readouterr().out
        maps = load_voxel_maps(out)
        assert len(maps) == 3
        assert [m.scale_level for m in maps] == [0, 1, 2]
        assert maps[0].count >= maps[1].count >= maps[2].count

    def test_stray_files_in_image_2_are_passed_over(self, seq_dir, tmp_path):
        options = ["--image-step", "2", "--image-window", "4", "--voxel-size", "0.4"]
        clean, stray = tmp_path / "clean.npz", tmp_path / "stray.npz"
        assert main(["lift", "--sequence", str(seq_dir), *options, "--out", str(clean)]) == 0
        # sorts before 000000.ppm, and is no image
        (seq_dir / "image_2" / ".gitkeep").write_bytes(b"")
        assert main(["lift", "--sequence", str(seq_dir), *options, "--out", str(stray)]) == 0
        assert stray.read_bytes() == clean.read_bytes()

    def test_no_image_to_size_from_names_the_directory_and_suffixes(self, seq_dir, capsys):
        image_dir = seq_dir / "image_2"
        shutil.rmtree(image_dir)
        image_dir.mkdir()
        (image_dir / ".gitkeep").write_bytes(b"")
        assert main(["lift", "--sequence", str(seq_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {image_dir}: no image (.ppm, .pgm, .fmap) to take the image size from\n"
        )

    def test_truncated_first_image_is_named(self, seq_dir, capsys):
        first = seq_dir / "image_2" / "000000.ppm"
        first.write_bytes(b"P6 4")
        assert main(["lift", "--sequence", str(seq_dir)]) == 2
        assert capsys.readouterr().err == f"error: {first}: truncated image header\n"

    def test_first_image_with_no_pixels_is_named(self, seq_dir, capsys):
        first = seq_dir / "image_2" / "000000.ppm"
        first.write_bytes(b"P6 0 4 255\n")
        assert main(["lift", "--sequence", str(seq_dir)]) == 2
        assert capsys.readouterr().err == f"error: {first}: bad image dimensions 0x4\n"

    def test_image_that_decodes_to_no_pixels_is_named(self, seq_dir, capsys):
        present = seq_dir / "image_2" / "000005.ppm"
        present.write_bytes(b"P6 0 4 255\n")
        assert main(["lift", "--sequence", str(seq_dir), "--frame", "5"]) == 2
        assert capsys.readouterr().err == f"error: {present}: bad image dimensions 0x4\n"

    def test_calibration_problems_are_named(self, seq_dir, tmp_path, capsys):
        no_p2, no_images = _without_p2(seq_dir, tmp_path / "no-p2"), tmp_path / "no-images"
        shutil.copytree(seq_dir, no_images)
        shutil.rmtree(no_images / "image_2")
        for seq, message in ((no_p2, f"{no_p2 / 'calib.txt'}: missing P2 entry"),
                             (no_images, str(no_images / "image_2"))):
            assert main(["lift", "--sequence", str(seq)]) == 2
            assert message in capsys.readouterr().err

    def test_only_lift_reads_a_camera(self, seq_dir, tmp_path, monkeypatch):
        seq = _without_p2(seq_dir, tmp_path / "no-camera")
        shutil.rmtree(seq / "image_2")

        def no_camera(*args, **kwargs):
            raise AssertionError("load_camera_calib called")

        monkeypatch.setattr(cli, "load_camera_calib", no_camera)
        monkeypatch.setattr(imaging, "load_camera_calib", no_camera)
        assert main(["aggregate", "--sequence", str(seq)]) == 0
        assert main(["bench", "--sequence", str(seq), "--repeats", "1"]) == 0

    def test_seeded_lift_is_reproducible(self, seq_dir, tmp_path):
        out_a, out_b = tmp_path / "a.npz", tmp_path / "b.npz"
        args = ["lift", "--sequence", str(seq_dir), "--image-step", "2",
                "--image-window", "4", "--voxel-size", "0.4", "--seed", "6"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for ma, mb in zip(load_voxel_maps(out_a), load_voxel_maps(out_b)):
            assert np.array_equal(ma.coords, mb.coords)
            assert np.array_equal(ma.features, mb.features)


class TestDistill:
    def lift_to(self, seq_dir, path, seed, scales=2):
        return main(["lift", "--sequence", str(seq_dir), "--image-step", "2",
                     "--image-window", "4", "--scales", str(scales),
                     "--voxel-size", "0.4", "--seed", str(seed), "--out", str(path)])

    def test_self_distillation_is_zero(self, seq_dir, tmp_path, capsys):
        dump = tmp_path / "x.npz"
        assert self.lift_to(seq_dir, dump, seed=1) == 0
        capsys.readouterr()
        assert main(["distill", "--student", str(dump), "--teacher", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "scale_0 0.0" in out and "mean 0.0" in out

    def test_different_kernels_give_positive_loss(self, seq_dir, tmp_path, capsys):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        assert self.lift_to(seq_dir, a, seed=1) == 0
        assert self.lift_to(seq_dir, b, seed=2) == 0
        capsys.readouterr()
        assert main(["distill", "--student", str(a), "--teacher", str(b)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        mean = float(lines[-1].split()[1])
        assert mean > 0.0

    def test_scale_count_mismatch_is_a_data_error(self, seq_dir, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        assert self.lift_to(seq_dir, a, seed=1, scales=2) == 0
        assert self.lift_to(seq_dir, b, seed=1, scales=3) == 0
        assert main(["distill", "--student", str(a), "--teacher", str(b)]) == 2

    def test_malformed_archives_are_named_data_errors(self, seq_dir, tmp_path, capsys):
        good = tmp_path / "good.npz"
        assert self.lift_to(seq_dir, good, seed=1) == 0
        with np.load(good) as data:
            arrays = dict(data)
        empty, short_meta = tmp_path / "empty.npz", tmp_path / "short-meta.npz"
        np.savez(empty, **{**arrays, "map_count": np.array(0)})
        np.savez(short_meta, **{**arrays, "scale1_meta": arrays["scale1_meta"][:3]})
        capsys.readouterr()
        for bad in (empty, short_meta):
            assert main(["distill", "--student", str(bad), "--teacher", str(good)]) == 2
            assert f"error: {bad}: not a voxel map archive (" in capsys.readouterr().err

    def test_coords_that_are_not_v_by_3_are_a_data_error(self, tmp_path, capsys):
        # (3, 2) coordinates once loaded as two voxels and distilled to "scale_0 0.0"
        bad = tmp_path / "bad.npz"
        np.savez(bad, map_count=np.array(1), scale0_coords=np.arange(6).reshape(3, 2),
                 scale0_features=np.ones((2, 3)), scale0_meta=np.array([0.4, 0.0, 0.0, 0.0, 0.0]))
        assert main(["distill", "--student", str(bad), "--teacher", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: not a voxel map archive (")
        assert "got (3, 2)" in captured.err

    def test_missing_dump_is_a_data_error(self, tmp_path):
        assert main(["distill", "--student", str(tmp_path / "a.npz"),
                     "--teacher", str(tmp_path / "b.npz")]) == 2


class TestBench:
    def test_table_output(self, seq_dir, capsys):
        code = main(["bench", "--sequence", str(seq_dir), "--strategies",
                     "direct,stepped:2,fsa", "--windows", "2,4", "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy" in out
        assert out.count("\n") == 2 + 6  # header, rule, 3 strategies x 2 windows

    def test_machine_output_is_json_lines(self, seq_dir, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main(["bench", "--sequence", str(seq_dir), "--strategies", "fsa",
                     "--windows", "4", "--repeats", "1", "--format", "machine",
                     "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
        assert len(rows) == 1
        assert rows[0]["strategy"] == "fsa"
        assert rows[0]["division"] == "division3"
        assert rows[0]["bytes"] == rows[0]["points"] * 16

    def test_unknown_division_names_the_presets(self, seq_dir, capsys):
        code = main(["bench", "--sequence", str(seq_dir), "--strategies", "fsa",
                     "--division", "nope"])
        assert code == 1
        assert "division3" in capsys.readouterr().err

    def test_unknown_strategy_is_a_usage_error(self, seq_dir, capsys):
        code = main(["bench", "--sequence", str(seq_dir), "--strategies", "quantum"])
        assert code == 1
        assert "direct" in capsys.readouterr().err

    def test_non_integer_window_is_a_usage_error(self, seq_dir, capsys):
        for windows, bad in (("abc", "'abc'"), ("4,x", "'x'"), ("2, 1.5", "'1.5'")):
            code = main(["bench", "--sequence", str(seq_dir), "--windows", windows])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and f"bad window {bad}" in err


def _long_sequence(tmp_path, frames, points=40):
    spec = tmp_path / f"long{frames}.yaml"
    spec.write_text(yaml.safe_dump({
        "frame_count": frames,
        "points_per_frame": points,
        "classes": {40: 0.5, 10: 0.3, 70: 0.2},
        "ego": {"velocity": [1.0, 0.0, 0.0], "yaw_rate_deg": 2.0},
        "seed": 5,
        "extent": 20.0,
    }))
    out = tmp_path / f"seq{frames}"
    assert main(["synth", str(spec), "--out", str(out)]) == 0
    return out


class TestWindowedLoading:
    """Commands decode only the frames and images their samplers read."""

    @pytest.fixture()
    def touched(self, monkeypatch):
        seen = {"frames": set(), "images": set()}
        read_bytes, read_image = seqio._read_bytes, cli.read_image

        def frame_bytes(path):
            seen["frames"].add(int(Path(path).stem))
            return read_bytes(path)

        def image(path):
            seen["images"].add(int(Path(path).stem))
            return read_image(path)

        monkeypatch.setattr(seqio, "_read_bytes", frame_bytes)
        monkeypatch.setattr(cli, "read_image", image)

        def run(argv, code=0):
            seen["frames"].clear()
            seen["images"].clear()
            assert main(argv) == code
            return set(seen["frames"]), set(seen["images"])

        return run

    def test_aggregate_touches_only_its_window(self, tmp_path, touched):
        seq = str(_long_sequence(tmp_path, 30))
        # division3 carries window 16 and the finite steps 2 and 4; --window overrides it
        assert touched(["aggregate", "--sequence", seq, "--frame", "20"]) == (
            set(range(4, 21, 2)), set())
        assert touched(["aggregate", "--sequence", seq, "--frame", "20", "--window", "3"]) == (
            {18, 20}, set())
        assert touched(["aggregate", "--sequence", seq, "--frame", "5", "--strategy", "direct",
                        "--window", "8"]) == (set(range(0, 6)), set())
        # without --frame, t is the last frame listed in poses.txt
        assert touched(["aggregate", "--sequence", seq, "--strategy", "stepped",
                        "--window", "4"]) == ({25, 27, 29}, set())

    def test_division_without_default_group_reads_the_whole_window(self, tmp_path, touched, capsys):
        seq = _long_sequence(tmp_path, 30)
        # class 99 appears only in frame 17, an odd offset no step of the division reaches
        label = seq / "labels" / "000017.label"
        packed = np.frombuffer(label.read_bytes(), dtype="<u4").copy()
        packed[0] = (packed[0] & 0xFFFF0000) | 99
        label.write_bytes(packed.tobytes())
        division = tmp_path / "strict.yaml"
        division.write_text(
            "window: 6\ndefault_step: null\ngroups:\n  - classes: [40, 10, 70]\n    step: 2\n"
        )
        argv = ["aggregate", "--sequence", str(seq), "--frame", "20", "--division", str(division)]
        assert touched(argv, code=2) == (set(range(14, 21)), set())
        assert "classes [99] in frame 17" in capsys.readouterr().err
        argv[argv.index("20")] = "24"  # frame 17 lies outside this window
        assert touched(argv) == (set(range(18, 25)), set())

    def test_lift_reads_only_the_sampled_images(self, tmp_path, touched):
        seq = str(_long_sequence(tmp_path, 30))
        lift = ["lift", "--sequence", seq, "--voxel-size", "0.5", "--scales", "2"]
        assert touched(lift + ["--frame", "20", "--image-step", "4", "--image-window", "10"]) == (
            {12, 16, 20}, {20, 16, 12})
        # offsets before frame 0 are dropped, as at the start of any sequence
        assert touched(lift + ["--frame", "3", "--image-step", "2", "--image-window", "6"]) == (
            {1, 3}, {3, 1})

    def test_bench_touches_its_widest_window(self, tmp_path, touched):
        seq = str(_long_sequence(tmp_path, 30))
        argv = ["bench", "--sequence", seq, "--frame", "12", "--windows", "2,7,4",
                "--strategies", "direct,fsa", "--repeats", "1"]
        assert touched(argv) == (set(range(5, 13)), set())

    def test_touched_set_is_flat_in_sequence_length(self, tmp_path, touched):
        runs = []
        for frames in (50, 500):
            seq = str(_long_sequence(tmp_path, frames))
            runs.append([
                touched(["aggregate", "--sequence", seq, "--frame", "40"]),
                touched(["lift", "--sequence", seq, "--frame", "40", "--voxel-size", "0.5",
                         "--image-step", "12", "--image-window", "24"]),
                touched(["bench", "--sequence", seq, "--frame", "40", "--repeats", "1"]),
            ])
        assert runs[0] == runs[1]
        assert runs[0] == [
            (set(range(24, 41, 2)), set()),
            ({16, 28, 40}, {40, 28, 16}),
            (set(range(24, 41)), set()),
        ]


class TestWindowedOutputs:
    """Window-bounded commands write what the library gives on the whole sequence."""

    @pytest.fixture(scope="class")
    def seq(self, tmp_path_factory):
        return _long_sequence(tmp_path_factory.mktemp("windowed"), 30, points=300)

    @pytest.mark.parametrize("t", [3, 20])
    def test_aggregate_matches_the_whole_sequence(self, seq, tmp_path, t):
        division = tmp_path / "own-window.yaml"
        division.write_text(
            "window: 6\ndefault_step: 3\ngroups:\n"
            "  - classes: [40]\n    step: inf\n"
            "  - classes: [10]\n    step: 2\n"
            "    distance_split: {threshold_m: 8.0, near_step_multiplier: 2}\n"
        )
        # offsets 3, 4, 6, 8, 9, 12, 15, 16: not one arithmetic progression
        uneven = tmp_path / "uneven.yaml"
        uneven.write_text(
            "groups:\n  - classes: [40]\n    step: 3\n  - classes: [10]\n    step: 4\n"
        )
        frames = load_sequence(seq)
        noisy = [f if f.index == t else corrupt_labels(f, 0.25, 7 + f.index) for f in frames]
        presets = [
            (["--strategy", "fsa", "--division", name], aggregate_fsa(noisy, t, division_preset(name)))
            for name in DIVISION_PRESET_NAMES
        ]
        cases = presets + [
            (["--strategy", "fsa", "--division", str(division)],
             aggregate_fsa(noisy, t, load_division(division))),
            (["--strategy", "fsa", "--division", str(uneven)],
             aggregate_fsa(noisy, t, load_division(uneven))),
            (["--strategy", "fsa", "--division", "division3", "--window", "5"],
             aggregate_fsa(noisy, t, division_preset("division3", window=5))),
            (["--strategy", "direct", "--window", "4"], aggregate_direct(noisy, t, 4)),
            (["--strategy", "stepped", "--step", "3"], aggregate_stepped(noisy, t, DEFAULT_WINDOW, 3)),
        ]
        assert len(presets) == 5
        # the file's own window reaches past frames
        assert (cases[len(presets)][1].source_step > 0).any()
        for options, want in cases:
            out = tmp_path / "cloud.npz"
            assert main(["aggregate", "--sequence", str(seq), "--frame", str(t),
                         "--label-error-rate", "0.25", "--seed", "7", "--out", str(out),
                         *options]) == 0
            dump = np.load(out)
            assert np.array_equal(dump["xyz"], want.labeled.cloud.xyz)
            assert np.array_equal(dump["intensity"], want.labeled.cloud.intensity)
            assert np.array_equal(dump["semantic"], want.labeled.semantic)
            assert np.array_equal(dump["instance"], want.labeled.instance)
            assert np.array_equal(dump["source_frame"], want.source_frame)
            assert np.array_equal(dump["source_step"], want.source_step)

    def test_rejected_steps_and_windows_keep_their_errors(self, seq, capsys):
        cases = [
            (["lift", "--image-step", "0"], "image step must be a positive integer, got 0"),
            (["lift", "--image-window", "-1"], "image window must be a non-negative integer, got -1"),
            (["aggregate", "--strategy", "stepped", "--step", "0"],
             "step must be a positive integer or infinite, got 0"),
        ]
        for argv, message in cases:
            for t in ("3", "20"):
                assert main([*argv, "--sequence", str(seq), "--frame", t]) == 2
                assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("t", [3, 20])
    def test_lift_matches_the_whole_sequence(self, seq, tmp_path, t):
        frames = load_sequence(seq)
        calib = load_camera_calib(seq)
        images = {f.index: read_image(seq / "image_2" / f"{f.index:06d}.ppm") for f in frames}
        lifted = aggregate_image_features(frames, images, calib, t, step=2, window=8)
        want = fuse_to_voxels(lifted, scales=2, seed=4, voxel_size=0.5)
        out = tmp_path / "maps.npz"
        assert main(["lift", "--sequence", str(seq), "--frame", str(t), "--image-step", "2",
                     "--image-window", "8", "--scales", "2", "--voxel-size", "0.5",
                     "--seed", "4", "--out", str(out)]) == 0
        got = load_voxel_maps(out)
        assert len(got) == len(want) == 2
        assert want[0].count > 0
        for g, w in zip(got, want):
            assert np.array_equal(g.coords, w.coords)
            assert np.array_equal(g.features, w.features)
            assert g.voxel_size == w.voxel_size and g.scale_level == w.scale_level
