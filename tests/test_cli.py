import math
import struct
from pathlib import Path

import pytest

from radmat.cli import (
    EXIT_CALIBRATION,
    EXIT_DOMAIN,
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_NO_TARGET,
    EXIT_OK,
    EXIT_SCENE,
    main,
)
from radmat.calibration import estimate_noise_power
from radmat.cube_io import read_cube, write_cube
from radmat.docio import canonical_bytes, read_document, write_document
from radmat.pipeline import calibrate_from_cubes
from radmat.spectral import range_doppler
from conftest import FIXTURE_NOISE_W, make_plate

DATA_DIR = Path(__file__).parent / "data"
VLM_FIXTURES = DATA_DIR / "vlm_fixtures.json"
GOLDEN_B7 = DATA_DIR / "golden" / "b7_decision.json"


def scene_doc(config, targets, noise_power_w=FIXTURE_NOISE_W, seed=77):
    return {
        "chirp": {
            "carrier_frequency_hz": config.carrier_frequency_hz,
            "bandwidth_hz": config.bandwidth_hz,
            "slope_hz_per_s": config.slope_hz_per_s,
            "sample_rate_hz": config.sample_rate_hz,
            "samples_per_chirp": config.samples_per_chirp,
            "chirps_per_frame": config.chirps_per_frame,
        },
        "array": {"element_count": 8},
        "targets": targets,
        "noise_power_w": noise_power_w,
        "seed": seed,
    }


def plate_entry(position, epsilon, area=0.04, label="plate"):
    return {
        "label": label,
        "position_m": [float(x) for x in position],
        "dielectric_constant": epsilon,
        "facet_normal": [0.0, 0.0, -1.0],
        "facet_area_m2": area,
    }


@pytest.fixture()
def profile_path(tmp_path, profile):
    path = tmp_path / "profile.json"
    write_document(path, profile.to_document())
    return str(path)


@pytest.fixture()
def provider_path(tmp_path):
    path = tmp_path / "provider.json"
    write_document(path, {"mode": "mock", "fixture_path": str(VLM_FIXTURES)})
    return str(path)


def _write_scene(tmp_path, config, position, epsilon, name="scene.json", **kwargs):
    path = tmp_path / name
    write_document(path, scene_doc(config, [plate_entry(position, epsilon)], **kwargs))
    return str(path)


class TestSimulate:
    def test_valid_scene(self, tmp_path, config, fixture_position, capsys):
        scene = _write_scene(tmp_path, config, fixture_position, 4.0)
        out = tmp_path / "frame.rcub"
        assert main(["simulate", scene, "-o", str(out)]) == EXIT_OK
        assert out.read_bytes()[:4] == b"RCUB"
        assert "600 samples" in capsys.readouterr().out

    def test_missing_scene_file(self, tmp_path):
        code = main(["simulate", str(tmp_path / "nope.json"), "-o", str(tmp_path / "x.rcub")])
        assert code == EXIT_IO

    def test_out_of_range_target_names_it(self, tmp_path, config, capsys):
        scene = _write_scene(tmp_path, config, [0.0, 0.0, 23.0], 4.0)
        code = main(["simulate", scene, "-o", str(tmp_path / "x.rcub")])
        assert code == EXIT_SCENE
        assert "plate" in capsys.readouterr().err


    def test_null_facet_normal_exits_format(self, tmp_path, config, fixture_position, capsys):
        entry = {**plate_entry(fixture_position, 4.0), "facet_normal": None}
        path = tmp_path / "scene.json"
        write_document(path, scene_doc(config, [entry]))
        assert main(["simulate", str(path), "-o", str(tmp_path / "x.rcub")]) == EXIT_FORMAT
        assert "target 0" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_sphere_plate_noise_cube_chain(
        self, tmp_path, config, geometry, fixture_position, frame_factory
    ):
        from conftest import make_sphere

        sphere = tmp_path / "sphere.rcub"
        plate = tmp_path / "plate.rcub"
        empty = tmp_path / "empty.rcub"
        write_cube(sphere, frame_factory([make_sphere(fixture_position)], seed=11))
        write_cube(plate, frame_factory([make_plate(fixture_position, 1e6)], seed=12))
        write_cube(empty, frame_factory([], seed=99))
        out = tmp_path / "profile.json"
        code = main(
            [
                "calibrate",
                "--sphere", str(sphere),
                "--plate", str(plate),
                "--noise-cube", str(empty),
                "--sphere-diameter", "0.063",
                "--gate", "0.1", "0.6",
                "-o", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = read_document(out)
        assert doc["system_constant_k"] > 0
        assert doc["metal_plate_rho"] > 0
        # the command is a thin wrapper over the library's calibrate flow
        library = calibrate_from_cubes(
            read_cube(sphere), read_cube(plate), 0.063,
            estimate_noise_power(read_cube(empty)), (0.1, 0.6),
        )
        assert out.read_bytes() == canonical_bytes(library.to_document())

    def test_plate_below_usable_snr_exits_6(
        self, tmp_path, fixture_position, frame_factory, capsys
    ):
        from conftest import make_sphere

        # measure computes the plate's sigma before the SNR check; a swamped
        # plate must still fail as a calibration error
        sphere = tmp_path / "sphere.rcub"
        plate = tmp_path / "plate.rcub"
        write_cube(sphere, frame_factory([make_sphere(fixture_position)], seed=11))
        write_cube(plate, frame_factory([make_plate(fixture_position, 1e6)], seed=12))
        argv = ["calibrate", "--sphere", str(sphere), "--plate", str(plate),
                "--noise-power", "1e15", "--sphere-diameter", "0.063",
                "--gate", "0.1", "0.6", "-o", str(tmp_path / "profile.json")]
        assert main(argv) == EXIT_CALIBRATION
        assert "plate SNR is below the usable threshold" in capsys.readouterr().err


class TestExtract:
    def test_oracle_plate_features(self, tmp_path, config, fixture_position, frame_factory, profile_path):
        cube_path = tmp_path / "plate4.rcub"
        write_cube(cube_path, frame_factory([make_plate(fixture_position, 4.0)], seed=61))
        out = tmp_path / "features.json"
        code = main(
            ["extract", str(cube_path), "--profile", profile_path,
             "--gate", "0.1", "0.6", "-o", str(out)]
        )
        assert code == EXIT_OK
        features = read_document(out)
        assert 3.6 <= features["dielectric_constant"] <= 4.4

    def test_empty_scene_no_target(self, tmp_path, frame_factory, profile_path):
        cube_path = tmp_path / "empty.rcub"
        write_cube(cube_path, frame_factory([], seed=62))
        code = main(
            ["extract", str(cube_path), "--profile", profile_path,
             "--gate", "0.1", "0.6", "-o", str(tmp_path / "f.json")]
        )
        assert code == EXIT_NO_TARGET

    def test_corrupt_cube_header(self, tmp_path, profile_path):
        cube_path = tmp_path / "bad.rcub"
        cube_path.write_bytes(b"JUNK" + b"\x00" * 100)
        code = main(
            ["extract", str(cube_path), "--profile", profile_path,
             "--gate", "0.1", "0.6", "-o", str(tmp_path / "f.json")]
        )
        assert code == EXIT_FORMAT

    @pytest.mark.parametrize(
        "offset, nan",
        [
            pytest.param(20, struct.pack("<d", math.nan), id="carrier_frequency_hz"),
            pytest.param(44, struct.pack("<d", math.nan), id="sample_rate_hz"),
            pytest.param(52, struct.pack("<d", math.nan), id="antenna_spacing_m"),
            pytest.param(64 + 8 * 1000, struct.pack("<f", math.nan), id="payload"),
        ],
    )
    def test_nan_in_cube_file_exits_format(
        self, tmp_path, fixture_position, frame_factory, profile_path, offset, nan, capsys
    ):
        cube_path = tmp_path / "nan.rcub"
        write_cube(cube_path, frame_factory([make_plate(fixture_position, 4.0)], seed=61))
        raw = bytearray(cube_path.read_bytes())
        raw[offset : offset + len(nan)] = nan
        cube_path.write_bytes(bytes(raw))
        code = main(
            ["extract", str(cube_path), "--profile", profile_path,
             "--gate", "0.1", "0.6", "-o", str(tmp_path / "f.json")]
        )
        assert code == EXIT_FORMAT
        assert "format" in capsys.readouterr().err

    def test_debug_dumps_intermediates(
        self, tmp_path, fixture_position, frame_factory, profile_path
    ):
        cube_path = tmp_path / "plate.rcub"
        write_cube(cube_path, frame_factory([make_plate(fixture_position, 9.0)], seed=63))
        out = tmp_path / "features.json"
        code = main(
            ["extract", str(cube_path), "--profile", profile_path,
             "--gate", "0.1", "0.6", "-o", str(out), "--debug"]
        )
        assert code == EXIT_OK
        for suffix in ("rd_map", "ra_map", "synthesis", "prca"):
            assert (tmp_path / f"features.{suffix}.json").exists()

    def test_debug_rd_map_is_full_map(
        self, tmp_path, fixture_position, frame_factory, profile_path
    ):
        # detection reads a map gated to --gate; the debug dump stays the full map
        cube_path = tmp_path / "plate.rcub"
        write_cube(cube_path, frame_factory([make_plate(fixture_position, 9.0)], seed=63))
        out = tmp_path / "features.json"
        code = main(
            ["extract", str(cube_path), "--profile", profile_path,
             "--gate", "0.1", "0.6", "-o", str(out), "--debug"]
        )
        assert code == EXIT_OK
        rd_map = tmp_path / "features.rd_map.json"
        assert read_document(rd_map)["range_bins"] == 1024
        full = range_doppler(read_cube(cube_path)).to_document()
        assert rd_map.read_bytes() == canonical_bytes(full)

    def test_debug_base_keeps_dotted_directory(
        self, tmp_path, fixture_position, frame_factory, profile_path
    ):
        cube_path = tmp_path / "plate.rcub"
        write_cube(cube_path, frame_factory([make_plate(fixture_position, 9.0)], seed=63))
        run_dir = tmp_path / "run.v2"
        run_dir.mkdir()
        code = main(
            ["extract", str(cube_path), "--profile", profile_path,
             "--gate", "0.1", "0.6", "-o", str(run_dir / "features"), "--debug"]
        )
        assert code == EXIT_OK
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "features", "features.prca.json", "features.ra_map.json",
            "features.rd_map.json", "features.synthesis.json",
        ]
        assert not list(tmp_path.glob("run.*.json"))


class TestIdentify:
    def test_plastic_reading(self, tmp_path, fixture_position, frame_factory, profile_path):
        cube_path = tmp_path / "plate.rcub"
        write_cube(cube_path, frame_factory([make_plate(fixture_position, 2.87)], seed=64))
        features = tmp_path / "features.json"
        main(["extract", str(cube_path), "--profile", profile_path,
              "--gate", "0.1", "0.6", "-o", str(features)])
        out = tmp_path / "candidates.json"
        assert main(["identify", str(features), "-o", str(out)]) == EXIT_OK
        doc = read_document(out)
        assert doc["candidates"][0][0] == "plastic"


def _write_contexts(tmp_path):
    visual = {
        "luminance": 0.8,
        "complexity": 0.2,
        "vlm_entropy": 0.971,
        "candidates": [["glass", 0.6], ["plastic", 0.4]],
    }
    radar = {
        "snr_linear": 1e6,
        "distance_m": 0.3,
        "max_distance_m": 5.0,
        "incidence_angle_rad": 0.0,
        "measured_epsilon": 9.0,
        "candidates": [["glass", 0.8], ["ceramic", 0.2]],
    }
    vpath, rpath = tmp_path / "vis.json", tmp_path / "rad.json"
    write_document(vpath, visual)
    write_document(rpath, radar)
    return vpath, rpath


class TestFuse:
    def test_context_documents_to_decision(self, tmp_path):
        vpath, rpath = _write_contexts(tmp_path)
        out = tmp_path / "decision.json"
        code = main(["fuse", "--visual", str(vpath), "--radar", str(rpath), "-o", str(out)])
        assert code == EXIT_OK
        doc = read_document(out)
        assert doc["material"] == "glass"
        assert doc["mode"] == "intersection"

    def test_visual_context_as_fusion_config_rejected(self, tmp_path):
        vpath, rpath = _write_contexts(tmp_path)
        argv = ["fuse", "--visual", str(vpath), "--radar", str(rpath),
                "--fusion-config", str(vpath), "-o", str(tmp_path / "decision.json")]
        assert main(argv) == EXIT_DOMAIN

    @pytest.mark.parametrize("stray", [{"kind": "fusion_decision"}, {"snr_floor": 1e-6}])
    def test_radar_context_of_another_kind_or_with_stray_key_rejected(self, tmp_path, stray):
        vpath, rpath = _write_contexts(tmp_path)
        write_document(rpath, {**read_document(rpath), **stray})
        argv = ["fuse", "--visual", str(vpath), "--radar", str(rpath),
                "-o", str(tmp_path / "decision.json")]
        assert main(argv) == EXIT_DOMAIN

    @pytest.mark.parametrize(
        "context, candidates",
        [
            pytest.param("visual", [["paper", -0.5], ["metal", 1.5]], id="visual-outside-0-1"),
            pytest.param("visual", [["paper", 0.4], ["metal", 0.6]], id="visual-ascending"),
            pytest.param("radar", [["metal", 1.5], ["paper", -0.5]], id="radar-outside-0-1"),
        ],
    )
    def test_invalid_candidate_probabilities_rejected(self, tmp_path, context, candidates):
        vpath, rpath = _write_contexts(tmp_path)
        path = vpath if context == "visual" else rpath
        write_document(path, {**read_document(path), "candidates": candidates})
        argv = ["fuse", "--visual", str(vpath), "--radar", str(rpath),
                "-o", str(tmp_path / "decision.json")]
        assert main(argv) == EXIT_DOMAIN


class TestPipeline:
    def _run(self, tmp_path, config, profile_path, provider_path, scene, image, extra=()):
        out = tmp_path / "decision.json"
        code = main(
            [
                "pipeline",
                "--scene", scene,
                "--profile", profile_path,
                "--provider", provider_path,
                "--image", image,
                "--gate", "0.1", "0.6",
                "-o", str(out),
                *extra,
            ]
        )
        return code, out

    def test_a5_intersection_resolves_to_plastic(
        self, tmp_path, config, fixture_position, profile_path, provider_path
    ):
        scene = _write_scene(tmp_path, config, fixture_position, 2.87)
        code, out = self._run(tmp_path, config, profile_path, provider_path, scene, "a5_cup")
        assert code == EXIT_OK
        doc = read_document(out)
        assert doc["material"] == "plastic"
        assert doc["mode"] == "intersection"

    def test_a2_pruning_recovers_frosted_glass(
        self, tmp_path, config, fixture_position, profile_path, provider_path
    ):
        # radar leans ceramic, but the measurement rules out plastic and the
        # remaining visual candidate intersects the radar set
        scene = _write_scene(tmp_path, config, fixture_position, 6.9)
        code, out = self._run(tmp_path, config, profile_path, provider_path, scene, "a2_cup")
        assert code == EXIT_OK
        doc = read_document(out)
        assert doc["material"] == "frosted glass"

    def test_d6_visual_dominance_corrects_radar(
        self, tmp_path, config, fixture_position, profile_path, provider_path
    ):
        # metal-like reflection from a smooth wooden box; a distance-heavy
        # uncertainty config shifts trust to the visual branch
        scene = _write_scene(tmp_path, config, fixture_position, 27.8)
        fusion_cfg = tmp_path / "fusion.json"
        write_document(fusion_cfg, {"gamma2": 3.0})
        code, out = self._run(
            tmp_path, config, profile_path, provider_path, scene, "d6_box",
            extra=["--max-distance", "0.4", "--fusion-config", str(fusion_cfg)],
        )
        assert code == EXIT_OK
        doc = read_document(out)
        assert doc["material"] == "wood"
        assert doc["mode"] == "conflict"
        assert doc["s_vis"] > doc["s_rad"]

    def test_b7_known_failure_golden(
        self, tmp_path, config, fixture_position, profile_path, provider_path
    ):
        # smooth shiny paper reads metal-like; the radar branch wins and the
        # final label is wrong by design -- frozen as a golden file
        scene = _write_scene(tmp_path, config, fixture_position, 24.0)
        code, out = self._run(tmp_path, config, profile_path, provider_path, scene, "b7_bottle")
        assert code == EXIT_OK
        assert out.read_bytes() == GOLDEN_B7.read_bytes()
        assert read_document(out)["material"] == "metal"

    def test_byte_stable_across_runs(
        self, tmp_path, config, fixture_position, profile_path, provider_path
    ):
        scene = _write_scene(tmp_path, config, fixture_position, 9.0)
        _, first = self._run(tmp_path, config, profile_path, provider_path, scene, "a5_cup")
        first_bytes = first.read_bytes()
        _, second = self._run(tmp_path, config, profile_path, provider_path, scene, "a5_cup")
        assert second.read_bytes() == first_bytes

    def test_debug_base_keeps_dotted_directory(
        self, tmp_path, config, fixture_position, profile_path, provider_path
    ):
        scene = _write_scene(tmp_path, config, fixture_position, 2.87)
        run_dir = tmp_path / "run.v2"
        run_dir.mkdir()
        code = main(
            ["pipeline", "--scene", scene, "--profile", profile_path,
             "--provider", provider_path, "--image", "a5_cup",
             "--gate", "0.1", "0.6", "-o", str(run_dir / "decision"), "--debug"]
        )
        assert code == EXIT_OK
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "decision", "decision.features.json", "decision.prca.json",
            "decision.synthesis.json",
        ]
        assert not list(tmp_path.glob("run.*.json"))

    def test_cube_and_scene_mutually_exclusive(self, tmp_path, profile_path, provider_path):
        code = main(
            [
                "pipeline",
                "--profile", profile_path,
                "--provider", provider_path,
                "--image", "a5_cup",
                "--gate", "0.1", "0.6",
                "-o", str(tmp_path / "d.json"),
            ]
        )
        assert code != EXIT_OK


class TestHelp:
    def test_exit_codes_enumerated(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "exit codes" in text
        assert "no-target" in text
