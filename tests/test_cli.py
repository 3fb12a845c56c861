"""CLI behavior: exit codes, reproducibility, end-to-end subcommand wiring."""

import json

import numpy as np
import pytest
import yaml

from lidarseq.aggregation import aggregate_fsa, division_preset, load_division
from lidarseq.augment import classify_motion, extract_track
from lidarseq.cli import main
from lidarseq.errors import ConfigurationError
from lidarseq.aggregation import aggregate_direct
from lidarseq.sequence import load_sequence
from lidarseq.voxels import load_voxel_maps

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
        path = tmp_path / "bad.yaml"
        path.write_text("frame_count: 0\npoints_per_frame: 10\nclasses: {40: 1.0}\n")
        assert main(["synth", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "error" in capsys.readouterr().err


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

    def test_synth_source_skips_the_disk(self, spec_path, capsys):
        assert main(["aggregate", "--synth", str(spec_path), "--strategy", "direct",
                     "--window", "3"]) == 0
        assert "direct:" in capsys.readouterr().out

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
            "bad_window": ("window: abc\ngroups:\n" + good, "invalid literal for int"),
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

    def test_missing_sequence_dir_is_a_data_error(self, tmp_path):
        assert main(["aggregate", "--sequence", str(tmp_path / "nope")]) == 2

    def test_out_of_range_frame_is_a_data_error(self, seq_dir):
        assert main(["aggregate", "--sequence", str(seq_dir), "--frame", "42"]) == 2

    def test_source_is_required_and_exclusive(self, seq_dir, spec_path):
        assert main(["aggregate"]) == 1
        assert main(["aggregate", "--sequence", str(seq_dir), "--synth", str(spec_path)]) == 1


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
