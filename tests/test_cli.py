import argparse
import math
import platform
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import radmat
from radmat.calibration import CalibrationProfile, estimate_noise_power
from radmat.cli import (
    EXIT_CALIBRATION,
    EXIT_DOMAIN,
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_NO_TARGET,
    EXIT_OK,
    EXIT_PROVIDER,
    EXIT_SCENE,
    build_parser,
    main,
)
from radmat.cube_io import read_cube, write_cube
from radmat.dielectric import EmFeatureVector
from radmat.docio import canonical_bytes, check_keys, read_document, write_document
from radmat.errors import RadmatError
from radmat.fusion import RadarContext, VisualContext
from radmat.knowledge import load_store
from radmat.pipeline import calibrate_from_cubes, detect
from radmat.signal_model import SceneTarget, synthesize_frame
from radmat.spectral import range_angle_at_doppler, range_doppler
from radmat.vlm import ProviderConfig, VisualQuery, propose
from conftest import FIXTURE_NOISE_W, ProviderHandler, child_env, make_plate

try:  # numpy >= 2
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES

DATA_DIR = Path(__file__).parent / "data"
VLM_FIXTURES = DATA_DIR / "vlm_fixtures.json"
GOLDEN_B7 = DATA_DIR / "golden" / "b7_decision.json"
# OpenBLAS x86-64 kernels that OPENBLAS_CORETYPE can force, with the CPU
# features each needs; a CPU without AVX-512 picks Haswell or Zen
OPENBLAS_KERNELS = {
    "SkylakeX": ("AVX512_SKX",),
    "Haswell": ("AVX2", "FMA3"),
    "Zen": ("AVX2", "FMA3"),
    "Sandybridge": ("AVX",),
    "Nehalem": ("SSE42",),
    "Prescott": ("SSE3",),
}


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

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("position_m", b"[0.0, null, 0.3]"),
            ("position_m", b"[0.0, 1e400, 0.3]"),
            ("dielectric_constant", b"1e400"),
            ("facet_area_m2", b"NaN"),
            ("radial_velocity_m_s", b"-Infinity"),
        ],
    )
    def test_non_finite_target_exits_format(
        self, tmp_path, config, fixture_position, capsys, key, raw
    ):
        # JSON reads 1e400 as an infinity; a null is no number at all
        message = "position_m is None, not a number" if b"null" in raw else "must be finite"
        entry = {**plate_entry(fixture_position, 4.0), key: "value"}
        path = tmp_path / "scene.json"
        path.write_bytes(canonical_bytes(scene_doc(config, [entry])).replace(b'"value"', raw))
        assert main(["simulate", str(path), "-o", str(tmp_path / "x.rcub")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("format: target 0: ") and message in err

    def test_cube_beyond_float32_exits_format_and_writes_nothing(
        self, tmp_path, config, fixture_position, capsys
    ):
        # the simulator holds these samples in float64, but the cube file's float32 cannot
        path, out = tmp_path / "scene.json", tmp_path / "x.rcub"
        write_document(path, scene_doc(config, [plate_entry(fixture_position, 4.0, area=1e300)]))
        assert main(["simulate", str(path), "-o", str(out)]) == EXIT_FORMAT
        assert "exceed the float32 range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise_power_w", [math.nan, math.inf], ids=["NaN", "Infinity"])
    def test_non_finite_noise_power_exits_format(
        self, tmp_path, config, fixture_position, capsys, noise_power_w
    ):
        scene = _write_scene(tmp_path, config, fixture_position, 4.0, noise_power_w=noise_power_w)
        out = tmp_path / "x.rcub"
        assert main(["simulate", scene, "-o", str(out)]) == EXIT_FORMAT
        assert "format: scene: noise_power_w must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_noise_power_exits_format(self, tmp_path, config, fixture_position, capsys):
        scene = _write_scene(tmp_path, config, fixture_position, 4.0, noise_power_w=-1e-3)
        assert main(["simulate", scene, "-o", str(tmp_path / "x.rcub")]) == EXIT_FORMAT
        assert "format: scene: noise_power_w must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [
            ("scene", "noise_power"),  # the real key is noise_power_w
            ("target 0", "radial_velocity"),  # would simulate a static target
            ("chirp", "chirps"),
            ("array", "count"),
            ("array", "positions_m"),  # an array is a ULA: element_count and spacing_m
        ],
    )
    def test_unknown_key_exits_format(
        self, tmp_path, config, fixture_position, capsys, section, key
    ):
        doc = scene_doc(config, [plate_entry(fixture_position, 4.0)])
        parts = {"scene": doc, "chirp": doc["chirp"], "array": doc["array"]}
        parts["target 0"] = doc["targets"][0]
        parts[section][key] = 0.65
        path = tmp_path / "scene.json"
        write_document(path, doc)
        out = tmp_path / "x.rcub"
        assert main(["simulate", str(path), "-o", str(out)]) == EXIT_FORMAT
        assert capsys.readouterr().err.startswith(
            f"format: {section}: unknown keys ['{key}']"
        )
        assert not out.exists()

    @pytest.mark.parametrize("section", ["chirp", "array", "target 0"])
    def test_nested_record_with_a_kind_exits_format(
        self, tmp_path, config, fixture_position, capsys, section
    ):
        # only a scene's top level defines a kind
        doc = scene_doc(config, [plate_entry(fixture_position, 4.0)])
        parts = {"chirp": doc["chirp"], "array": doc["array"], "target 0": doc["targets"][0]}
        parts[section]["kind"] = section.split()[0]
        path = tmp_path / "scene.json"
        write_document(path, doc)
        assert main(["simulate", str(path), "-o", str(tmp_path / "x.rcub")]) == EXIT_FORMAT
        assert capsys.readouterr().err.startswith(f"format: {section}: unknown keys ['kind']")

    @pytest.mark.parametrize(
        "kind, code", [("scene", EXIT_OK), ("material_store", EXIT_FORMAT)], ids=["own", "other"]
    )
    def test_scene_may_name_its_own_kind(
        self, tmp_path, config, fixture_position, capsys, kind, code
    ):
        # a scene is a top-level document, and like every other one it may
        # carry a `kind` that names its own format
        doc = {**scene_doc(config, [plate_entry(fixture_position, 4.0)]), "kind": kind}
        path = tmp_path / "scene.json"
        write_document(path, doc)
        assert main(["simulate", str(path), "-o", str(tmp_path / "x.rcub")]) == code
        if code == EXIT_FORMAT:
            assert "format: scene: kind 'material_store' is not 'scene'" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("scene", "seed"), ("chirp", "samples_per_chirp")])
    def test_infinite_count_exits_format(
        self, tmp_path, config, fixture_position, capsys, section, key
    ):
        # JSON reads 1e400 as an infinity, which no integer holds
        doc = scene_doc(config, [plate_entry(fixture_position, 4.0)])
        (doc if section == "scene" else doc[section])[key] = "count"
        path = tmp_path / "scene.json"
        path.write_bytes(canonical_bytes(doc).replace(b'"count"', b"1e400"))
        assert main(["simulate", str(path), "-o", str(tmp_path / "x.rcub")]) == EXIT_FORMAT
        assert capsys.readouterr().err.startswith(f"format: {section}: ")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("scene", "noise_power_w", "loud"),
            ("scene", "seed", "x"),
            ("scene", "seed", -1),  # with noise to draw, numpy's generator rejects it
            ("scene", "seed", 1.7),  # would run truncated, as seed 1
            ("scene", "targets", 5),
            ("chirp", "samples_per_chirp", "x"),
            ("chirp", "carrier_frequency_hz", "x"),
            ("array", "element_count", "x"),
            ("target", "dielectric_constant", "x"),
            ("target", "facet_area_m2", "x"),
            # counts are JSON numbers with whole values; each would simulate
            ("chirp", "samples_per_chirp", 64.7),  # 64 samples
            ("array", "element_count", 8.9),  # 8 antennas
            ("chirp", "chirps_per_frame", True),  # 1 chirp
            ("chirp", "chirps_per_frame", "8"),
            ("array", "element_count", "8"),
            ("scene", "seed", True),  # seed 1, since True == 1
        ],
    )
    def test_wrong_type_value_exits_format(
        self, tmp_path, config, fixture_position, capsys, section, key, value
    ):
        doc = scene_doc(config, [plate_entry(fixture_position, 4.0)])
        parts = {"scene": doc, "chirp": doc["chirp"], "array": doc["array"]}
        parts["target"] = doc["targets"][0]
        parts[section][key] = value
        path = tmp_path / "scene.json"
        write_document(path, doc)
        assert main(["simulate", str(path), "-o", str(tmp_path / "x.rcub")]) == EXIT_FORMAT
        assert capsys.readouterr().err.startswith(f"format: {section}")


class TestCalibrateCommand:
    def test_sphere_plate_noise_cube_chain(
        self, tmp_path, config, geometry, fixture_position, frame_factory, capsys
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
        assert doc["version"] == 2 and doc["plate_reflectivity"] > 0
        assert f"plate_reflectivity={doc['plate_reflectivity']:.6g}" in capsys.readouterr().out
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

        # measure computes the plate's reflectivity before the SNR check; a plate
        # swamped by a loud noise cube's floor (about 4e15 W per bin) must
        # still fail as a calibration error
        sphere = tmp_path / "sphere.rcub"
        plate = tmp_path / "plate.rcub"
        loud = tmp_path / "loud.rcub"
        write_cube(sphere, frame_factory([make_sphere(fixture_position)], seed=11))
        write_cube(plate, frame_factory([make_plate(fixture_position, 1e6)], seed=12))
        write_cube(loud, frame_factory([], seed=99, noise_power_w=1e11))
        argv = ["calibrate", "--sphere", str(sphere), "--plate", str(plate),
                "--noise-cube", str(loud), "--sphere-diameter", "0.063",
                "--gate", "0.1", "0.6", "-o", str(tmp_path / "profile.json")]
        assert main(argv) == EXIT_CALIBRATION
        assert "plate SNR is below the usable threshold" in capsys.readouterr().err

    def test_sphere_and_plate_of_different_radars_exit_calibration(
        self, tmp_path, config, geometry, fixture_position, frame_factory, capsys
    ):
        from conftest import make_sphere

        # the plate frame has 32 chirps, the sphere frame 64
        plate_radar = replace(config, chirps_per_frame=32)
        sphere, plate = tmp_path / "sphere.rcub", tmp_path / "plate.rcub"
        empty, out = tmp_path / "empty.rcub", tmp_path / "profile.json"
        write_cube(sphere, frame_factory([make_sphere(fixture_position)], seed=11))
        write_cube(plate, synthesize_frame(
            [make_plate(fixture_position, 1e6)], plate_radar, geometry, FIXTURE_NOISE_W, 12
        ))
        write_cube(empty, frame_factory([], seed=99))
        argv = ["calibrate", "--sphere", str(sphere), "--plate", str(plate),
                "--noise-cube", str(empty), "--sphere-diameter", "0.063",
                "--gate", "0.1", "0.6", "-o", str(out)]
        assert main(argv) == EXIT_CALIBRATION
        assert "chirp chirps_per_frame 32 differs from the calibrated radar's 64" in (
            capsys.readouterr().err
        )
        assert not out.exists()


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

    @pytest.mark.parametrize("chirps", [128, 32])
    def test_frame_of_another_radar_exits_calibration(
        self, tmp_path, config, geometry, fixture_position, profile_path, capsys, chirps
    ):
        # the profile calibrates 64-chirp frames; unchecked, it read this
        # eps 5.1 plate as 61.5 at 128 chirps and as 2.19 at 32
        radar = replace(config, chirps_per_frame=chirps)
        cube_path, out = tmp_path / "plate.rcub", tmp_path / "features.json"
        write_cube(cube_path, synthesize_frame(
            [make_plate(fixture_position, 5.1)], radar, geometry, FIXTURE_NOISE_W, 5
        ))
        code = main(
            ["extract", str(cube_path), "--profile", profile_path,
             "--gate", "0.1", "0.6", "-o", str(out)]
        )
        assert code == EXIT_CALIBRATION
        assert f"chirp chirps_per_frame {chirps} differs from the calibrated radar's 64" in (
            capsys.readouterr().err
        )
        assert not out.exists()

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

    def test_debug_ra_map_is_full_map(
        self, tmp_path, fixture_position, frame_factory, profile_path
    ):
        # detection beamforms the gated map's held rows; the debug dump
        # beamforms every row, at the detected Doppler bin
        cube_path = tmp_path / "plate.rcub"
        write_cube(cube_path, frame_factory([make_plate(fixture_position, 9.0)], seed=63))
        out = tmp_path / "features.json"
        code = main(
            ["extract", str(cube_path), "--profile", profile_path,
             "--gate", "0.1", "0.6", "-o", str(out), "--debug"]
        )
        assert code == EXIT_OK
        ra_map = tmp_path / "features.ra_map.json"
        assert read_document(ra_map)["range_bins"] == 1024
        cube = read_cube(cube_path)
        _, _, det = detect(cube, (0.1, 0.6))
        full = range_angle_at_doppler(range_doppler(cube), det.doppler_bin).to_document()
        assert ra_map.read_bytes() == canonical_bytes(full)

    def test_debug_ra_map_of_a_mover_is_the_map_detected_on(
        self, tmp_path, config, fixture_position, frame_factory, profile_path
    ):
        # a board moving one Doppler bin, and a small static metal facet at
        # 30 degrees in the same range row, facing the radar; the static
        # map's row peaks at the facet, the board's Doppler bin at the board
        facet = SceneTarget(
            position_m=fixture_position[2] * np.array([0.5, 0.0, math.sqrt(3.0) / 2.0]),
            dielectric_constant=1.0e6,
            facet_normal=np.array([-0.5, 0.0, -math.sqrt(3.0) / 2.0]),
            facet_area_m2=0.002,
        )
        board = replace(make_plate(fixture_position, 4.0), radial_velocity_m_s=0.65)
        cube_path = tmp_path / "mover.rcub"
        write_cube(cube_path, frame_factory([board, facet], seed=64))
        out = tmp_path / "features.json"
        code = main(
            ["extract", str(cube_path), "--profile", profile_path,
             "--gate", "0.1", "0.6", "-o", str(out), "--debug"]
        )
        assert code == EXIT_OK
        features = read_document(out)
        assert features["angle_rad"] == 0.0 and features["velocity_m_s"] != 0.0
        ra_map = read_document(tmp_path / "features.ra_map.json")
        rows = np.reshape(ra_map["magnitudes_row_major"], (1024, ra_map["angle_bins"]))
        range_bin = round(features["range_m"] / ra_map["range_bin_m"])
        peak_angle = ra_map["angle_grid_rad"][int(np.argmax(rows[range_bin]))]
        assert peak_angle == features["angle_rad"]

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


FEATURES = {
    "range_m": 0.3,
    "velocity_m_s": 0.0,
    "angle_rad": 0.0,
    "snr_db": 30.0,
    "fresnel_coefficient": 0.25,
    "dielectric_constant": 2.8,
    "prca_area_m2": 0.04,
}


class TestIdentify:
    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param(key, value, id=f"{key}-{value}")
            for key in FEATURES
            for value in (math.nan, math.inf, -math.inf)
            if (key, value) != ("snr_db", -math.inf)
        ],
    )
    def test_non_finite_feature_exits_domain(self, tmp_path, capsys, key, value):
        features, out = tmp_path / "features.json", tmp_path / "candidates.json"
        write_document(features, {**FEATURES, key: value})  # written as NaN or Infinity
        assert main(["identify", str(features), "-o", str(out)]) == EXIT_DOMAIN
        assert f"{key} must be finite, not {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_snr_record_identifies(self, tmp_path):
        # extract_features writes snr_db -inf for a zero SNR
        features, out = tmp_path / "features.json", tmp_path / "candidates.json"
        write_document(features, {**FEATURES, "snr_db": -math.inf})
        assert main(["identify", str(features), "-o", str(out)]) == EXIT_OK

    def test_store_whose_materials_is_not_an_array_exits_format(self, tmp_path):
        features, store = tmp_path / "features.json", tmp_path / "store.json"
        write_document(features, FEATURES)
        write_document(store, {"materials": 5})
        argv = ["identify", str(features), "--store", str(store), "-o", str(tmp_path / "c.json")]
        assert main(argv) == EXIT_FORMAT

    @pytest.mark.parametrize(
        "level, unknown",
        [("entry", "sorce"), ("epsilon", "median"), ("top", "frequency_hz")],
    )
    def test_store_with_unknown_key_exits_format(self, tmp_path, level, unknown, capsys):
        doc = read_document(Path(radmat.__file__).parent / "data" / "default_store.json")
        entry = doc["materials"][0]
        if level == "entry":
            entry[unknown] = entry.pop("source")
        else:
            (entry["epsilon"] if level == "epsilon" else doc)[unknown] = 1.0
        features, store = tmp_path / "features.json", tmp_path / "store.json"
        write_document(features, FEATURES)
        write_document(store, doc)
        argv = ["identify", str(features), "--store", str(store), "-o", str(tmp_path / "c.json")]
        assert main(argv) == EXIT_FORMAT
        assert f"unknown keys ['{unknown}']" in capsys.readouterr().err

    @pytest.mark.parametrize("level, kind", [("entry", "material"), ("epsilon", "epsilon")])
    def test_store_record_with_a_kind_exits_format(self, tmp_path, level, kind, capsys):
        # only the store's top level defines a kind; its entries and their
        # epsilon objects refuse one like any other unknown key
        doc = read_document(Path(radmat.__file__).parent / "data" / "default_store.json")
        entry = doc["materials"][0]
        (entry if level == "entry" else entry["epsilon"])["kind"] = kind
        features, store = tmp_path / "features.json", tmp_path / "store.json"
        write_document(features, FEATURES)
        write_document(store, doc)
        argv = ["identify", str(features), "--store", str(store), "-o", str(tmp_path / "c.json")]
        assert main(argv) == EXIT_FORMAT
        assert "unknown keys ['kind']" in capsys.readouterr().err

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
        "incidence_angle_rad": 0.0,
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

    def test_target_past_the_distance_ceiling_weighs_as_at_the_ceiling(self, tmp_path):
        vpath, rpath = _write_contexts(tmp_path)
        decisions = []
        for distance in (6.0, 5.0):
            write_document(rpath, {**read_document(rpath), "distance_m": distance})
            out = tmp_path / f"decision_{distance}.json"
            argv = ["fuse", "--visual", str(vpath), "--radar", str(rpath), "-o", str(out)]
            assert main(argv) == EXIT_OK
            decisions.append(out.read_bytes())
        assert decisions[0] == decisions[1]

    def test_retired_radar_keys_are_read_and_ignored(self, tmp_path):
        # the 5 m document is what earlier versions wrote; its ceiling is now
        # fusion.MAX_DISTANCE_M whatever the document says
        vpath, rpath = _write_contexts(tmp_path)
        current = read_document(rpath)
        decisions = []
        for retired in (
            {"max_distance_m": 5.0, "measured_epsilon": 9.0},
            {"max_distance_m": 1.0, "measured_epsilon": 9.0},
            {},
        ):
            write_document(rpath, {**current, **retired})
            out = tmp_path / f"decision_{len(decisions)}.json"
            argv = ["fuse", "--visual", str(vpath), "--radar", str(rpath), "-o", str(out)]
            assert main(argv) == EXIT_OK
            decisions.append(out.read_bytes())
        assert decisions[1] == decisions[0] and decisions[2] == decisions[0]

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


    @pytest.mark.parametrize("context", ["visual", "radar"])
    def test_repeated_candidate_name_rejected(self, tmp_path, context):
        vpath, rpath = _write_contexts(tmp_path)
        path = vpath if context == "visual" else rpath
        repeated = [["glass", 0.6], ["glass", 0.4]]
        write_document(path, {**read_document(path), "candidates": repeated})
        argv = ["fuse", "--visual", str(vpath), "--radar", str(rpath),
                "-o", str(tmp_path / "decision.json")]
        assert main(argv) == EXIT_DOMAIN

    @pytest.mark.parametrize("context", ["visual", "radar"])
    def test_empty_candidate_name_rejected(self, tmp_path, context, capsys):
        vpath, rpath = _write_contexts(tmp_path)
        path = vpath if context == "visual" else rpath
        write_document(path, {**read_document(path), "candidates": [["", 0.6], ["glass", 0.4]]})
        out = tmp_path / "decision.json"
        argv = ["fuse", "--visual", str(vpath), "--radar", str(rpath), "-o", str(out)]
        assert main(argv) == EXIT_DOMAIN
        assert "names must be non-empty" in capsys.readouterr().err
        assert not out.exists()


class TestNonUtf8Documents:
    """Every document a command reads exits 4 when its bytes are not UTF-8."""

    @pytest.fixture()
    def paths(self, tmp_path, config, fixture_position, profile_path):
        vpath, rpath = _write_contexts(tmp_path)
        paths = {
            "scene": _write_scene(tmp_path, config, fixture_position, 2.87),
            "profile": profile_path,
            "visual": str(vpath),
            "radar": str(rpath),
            "features": str(tmp_path / "features.json"),
            "store": str(tmp_path / "store.json"),
            "fixture": str(tmp_path / "fixtures.json"),
            "provider": str(tmp_path / "provider.json"),
            "out": str(tmp_path / "out.json"),
        }
        write_document(paths["features"], FEATURES)
        store = Path(radmat.__file__).parent / "data" / "default_store.json"
        write_document(paths["store"], read_document(store))
        write_document(paths["fixture"], read_document(VLM_FIXTURES))
        write_document(paths["provider"], {"mode": "mock", "fixture_path": paths["fixture"]})
        return paths

    @pytest.mark.parametrize(
        "bad, argv",
        [
            ("scene", ["simulate", "{scene}", "-o", "{out}"]),
            ("features", ["identify", "{features}", "-o", "{out}"]),
            ("store", ["identify", "{features}", "--store", "{store}", "-o", "{out}"]),
            ("visual", ["fuse", "--visual", "{visual}", "--radar", "{radar}", "-o", "{out}"]),
            ("radar", ["fuse", "--visual", "{visual}", "--radar", "{radar}", "-o", "{out}"]),
            *(
                (name, ["pipeline", "--scene", "{scene}", "--profile", "{profile}",
                        "--provider", "{provider}", "--image", "a5_cup", "--gate", "0.1", "0.6",
                        "-o", "{out}"])
                for name in ("profile", "provider", "fixture")
            ),
        ],
    )
    def test_exits_format(self, paths, bad, argv):
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == EXIT_OK
        path = Path(paths[bad])
        path.write_bytes(b"{\xff" + path.read_bytes()[1:])
        assert main(argv) == EXIT_FORMAT


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
        # metal-like reflection from a smooth wooden box; at 0.355 m and high
        # SNR the radar branch is sure and wins, but a radar context made
        # uncertain by its own SNR, distance and angle yields to vision
        scene = _write_scene(tmp_path, config, fixture_position, 27.8)
        code, out = self._run(tmp_path, config, profile_path, provider_path, scene, "d6_box")
        assert code == EXIT_OK
        pipeline_doc = read_document(out)
        assert pipeline_doc["s_vis"] < pipeline_doc["s_rad"]
        inputs = pipeline_doc["inputs"]
        visual, radar = tmp_path / "visual.json", tmp_path / "radar.json"
        write_document(visual, inputs["visual_context"])
        write_document(radar, {
            "snr_linear": 1.0,
            "distance_m": 4.0,
            "incidence_angle_rad": math.pi / 4.0,
            "candidates": inputs["radar_candidates"]["candidates"],
        })
        fused = tmp_path / "fused.json"
        argv = ["fuse", "--visual", str(visual), "--radar", str(radar), "-o", str(fused)]
        assert main(argv) == EXIT_OK
        doc = read_document(fused)
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

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 OpenBLAS kernels"
    )
    @pytest.mark.parametrize("kernel", list(OPENBLAS_KERNELS))
    def test_b7_golden_under_every_openblas_kernel(self, tmp_path, kernel):
        # calibration and the b7 pipeline, run again in a fresh process whose
        # OpenBLAS is forced onto `kernel`, still write the golden bytes
        if not all(CPU_FEATURES.get(f) for f in OPENBLAS_KERNELS[kernel]):
            pytest.skip(f"this CPU cannot run the {kernel} kernel")
        test_id = f"{Path(__file__).name}::TestPipeline::test_b7_known_failure_golden"
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--basetemp", str(tmp_path / "run"), test_id],
            cwd=Path(__file__).parent, env=child_env(OPENBLAS_CORETYPE=kernel),
            capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]

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

    def test_http_provider_answer_reaches_the_decision(
        self, tmp_path, config, fixture_position, profile_path, http_server
    ):
        provider, image = tmp_path / "provider.json", tmp_path / "object.png"
        write_document(provider, {"mode": "http", "endpoint_url": http_server})
        image.write_bytes(b"\x89PNG fake image bytes")
        scene = _write_scene(tmp_path, config, fixture_position, 2.87)
        code, out = self._run(tmp_path, config, profile_path, str(provider), scene, str(image))
        assert code == EXIT_OK
        # "glass" has no store record and plastic fits ε 2.87, so pruning keeps both
        visual = read_document(out)["inputs"]["visual_context"]
        assert visual["candidates"] == [["glass", 0.6], ["plastic", 0.4]]

    def test_http_answer_with_unknown_key_exits_provider(
        self, tmp_path, config, fixture_position, profile_path, http_server, capsys
    ):
        ProviderHandler.behaviour = "extra"
        provider, image = tmp_path / "provider.json", tmp_path / "object.png"
        write_document(provider, {"mode": "http", "endpoint_url": http_server})
        image.write_bytes(b"\x89PNG fake image bytes")
        scene = _write_scene(tmp_path, config, fixture_position, 2.87)
        code, out = self._run(tmp_path, config, profile_path, str(provider), scene, str(image))
        assert code == EXIT_PROVIDER
        assert "unknown keys ['model']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param([["glass", 1.0]], id="list"),
            pytest.param({"candidates": [["glass", 1.0]], "luminance": "bright"}, id="word"),
            pytest.param({"candidates": [["glass", 1.0]], "luminance": 1.5}, id="above-1"),
            pytest.param({"candidates": [["glass", 0.6], ["glass", 0.4]]}, id="repeated-name"),
            pytest.param({"candidates": [["glass", 1.0]], "luminence": 0.05}, id="misspelt-key"),
            # an answer's format defines no kind, so a `kind` key is unknown
            pytest.param(
                {"candidates": [["glass", 1.0]], "kind": "provider_answer"}, id="kind-key"
            ),
        ],
    )
    def test_faulty_fixture_entry_exits_provider(
        self, tmp_path, config, fixture_position, profile_path, entry
    ):
        fixtures, provider = tmp_path / "fixtures.json", tmp_path / "provider.json"
        write_document(fixtures, {"cup": entry})
        write_document(provider, {"mode": "mock", "fixture_path": str(fixtures)})
        scene = _write_scene(tmp_path, config, fixture_position, 2.87)
        code, _ = self._run(tmp_path, config, profile_path, str(provider), scene, "cup")
        assert code == EXIT_PROVIDER

    @pytest.mark.parametrize(
        "phasors, message",
        [
            ([], "need one phase phasor per antenna"),
            ({}, "phase_phasors_re_im is {}, not an array"),
        ],
        ids=["array", "object"],
    )
    def test_profile_without_phasors_exits_calibration(
        self, tmp_path, config, fixture_position, profile, provider_path, capsys, phasors, message
    ):
        path = tmp_path / "profile.json"
        write_document(path, {**profile.to_document(), "phase_phasors_re_im": phasors})
        scene = _write_scene(tmp_path, config, fixture_position, 2.87)
        code, _ = self._run(tmp_path, config, str(path), provider_path, scene, "a5_cup")
        assert code == EXIT_CALIBRATION
        assert message in capsys.readouterr().err

    def test_profile_with_nan_noise_power_exits_calibration(
        self, tmp_path, config, fixture_position, profile, provider_path, capsys
    ):
        path = tmp_path / "profile.json"
        write_document(path, {**profile.to_document(), "noise_power_w": math.nan})
        scene = _write_scene(tmp_path, config, fixture_position, 2.87)
        code, out = self._run(tmp_path, config, str(path), provider_path, scene, "a5_cup")
        assert code == EXIT_CALIBRATION
        assert "noise power must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_cube_file_exits_io(self, tmp_path, profile_path, provider_path, capsys):
        code = main(
            ["pipeline", "--cube", str(tmp_path / "nope.rcub"), "--profile", profile_path,
             "--provider", provider_path, "--image", "a5_cup", "--gate", "0.1", "0.6",
             "-o", str(tmp_path / "d.json")]
        )
        assert code == EXIT_IO == 9  # not argparse's usage status 2
        assert "io:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source", [[], ["--cube", "x.rcub", "--scene", "s.json"]], ids=["neither", "both"]
    )
    def test_cube_and_scene_mutually_exclusive(
        self, tmp_path, profile_path, provider_path, capsys, source
    ):
        argv = ["pipeline", *source, "--profile", profile_path, "--provider", provider_path,
                "--image", "a5_cup", "--gate", "0.1", "0.6", "-o", str(tmp_path / "d.json")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2  # a usage error, before any file is read
        err = capsys.readouterr().err
        assert "--cube" in err and "--scene" in err


class TestVersion1Documents:
    """A profile and a feature record written before the sphere became the
    phase reference only, when the profile held the sphere's RCS, range and
    SNR and the record an RCS and power reflection in the sphere's m^2 scale."""

    V1 = DATA_DIR / "v1"

    @pytest.mark.parametrize("command", ["extract", "pipeline"])
    def test_profile_must_be_calibrated_again(
        self, tmp_path, fixture_position, frame_factory, provider_path, capsys, command
    ):
        # its plate reference is in the sphere's unit, which no profile holds now
        cube_path, out = tmp_path / "plate.rcub", tmp_path / "out.json"
        write_cube(cube_path, frame_factory([make_plate(fixture_position, 4.0)], seed=61))
        argv = [command, "--profile", str(self.V1 / "profile.json"), "--gate", "0.1", "0.6",
                "-o", str(out)]
        if command == "extract":
            argv.insert(1, str(cube_path))
        else:
            argv += ["--cube", str(cube_path), "--provider", provider_path, "--image", "a5_cup"]
        assert main(argv) == EXIT_CALIBRATION
        assert "calibration profile version 1 is not 2; run `radmat calibrate` again" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_feature_record_identifies_as_it_did(self, tmp_path):
        # candidates.json is what `radmat identify` wrote for the record then
        out = tmp_path / "candidates.json"
        assert main(["identify", str(self.V1 / "features.json"), "-o", str(out)]) == EXIT_OK
        assert out.read_bytes() == (self.V1 / "candidates.json").read_bytes()


class TestHelp:
    def test_exit_codes_enumerated(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "exit codes" in text
        assert "no-target" in text


class TestSurface:
    """The CLI's options, pinned: a new or removed flag shows up here."""

    OPTIONS = {
        "simulate": {"-h", "--help", "--output", "-o"},
        "calibrate": {
            "-h", "--help", "--sphere", "--plate", "--sphere-diameter", "--noise-cube",
            "--gate", "--output", "-o",
        },
        "extract": {"-h", "--help", "--profile", "--gate", "--output", "-o", "--debug"},
        "identify": {"-h", "--help", "--store", "--output", "-o"},
        "fuse": {"-h", "--help", "--visual", "--radar", "--output", "-o"},
        "pipeline": {
            "-h", "--help", "--cube", "--scene", "--profile", "--store", "--provider",
            "--image", "--gate", "--output", "-o", "--debug",
        },
    }

    def test_option_census(self):
        (commands,) = (
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        found = {
            name: {option for action in sub._actions for option in action.option_strings}
            for name, sub in commands.items()
        }
        assert found == self.OPTIONS

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "s.json", "-o", "x.rcub", "--seed", "3"],
            ["calibrate", "--sphere", "s.rcub", "--plate", "p.rcub", "--noise-cube", "e.rcub",
             "--sphere-diameter", "0.063", "--gate", "0.1", "0.6", "-o", "p.json",
             "--noise-power", "1e15"],
            ["extract", "x.rcub", "--profile", "p.json", "--gate", "0.1", "0.6", "-o", "f.json",
             "--threshold-db", "10"],
            ["identify", "f.json", "-o", "c.json", "--top-k", "5"],
            ["pipeline", "--cube", "x.rcub", "--profile", "p.json", "--provider", "v.json",
             "--image", "cup", "--gate", "0.1", "0.6", "-o", "d.json", "--max-distance", "0.4"],
            ["fuse", "--visual", "v.json", "--radar", "r.json", "-o", "d.json",
             "--fusion-config", "f.json"],
            ["pipeline", "--cube", "x.rcub", "--profile", "p.json", "--provider", "v.json",
             "--image", "cup", "--gate", "0.1", "0.6", "-o", "d.json",
             "--fusion-config", "f.json"],
        ],
        ids=lambda argv: f"{argv[0]}-{argv[-2]}",
    )
    def test_removed_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2 != EXIT_IO  # a usage error, not a file error
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    # the keys each user-supplied document may carry, retired keys included
    DOCUMENT_KEYS = {
        "calibration_profile": {
            "kind", "version", "chirp", "array", "phase_phasors_re_im", "noise_power_w",
            "plate_reflectivity",
        },
        "radar_context": {
            "kind", "snr_linear", "distance_m", "max_distance_m", "incidence_angle_rad",
            "measured_epsilon", "candidates",
        },
        "visual_context": {"kind", "luminance", "complexity", "vlm_entropy", "candidates"},
        "em_feature_vector": {
            "kind", "range_m", "velocity_m_s", "angle_rad", "snr_db", "rcs_m2",
            "power_reflection", "fresnel_coefficient", "dielectric_constant", "prca_area_m2",
        },
        "provider_config": {
            "kind", "mode", "endpoint_url", "auth_token_env_name", "timeout_ms", "fixture_path",
            "max_in_flight",
        },
        "provider_answer": {"candidates", "luminance", "complexity"},
        "material_store": {"kind", "materials", "version", "frequency_ghz", "notes"},
        "material": {"id", "name", "epsilon", "source", "itu"},
        "epsilon": {"mean", "std", "low", "high"},
    }

    def test_document_key_census(self, tmp_path, monkeypatch):
        # every reader checks its keys through `check_keys`; record what each
        # allows, through every module's binding of it
        accepted = {}

        def recording_check_keys(doc, kind, keys):
            accepted[kind] = set(keys)
            return check_keys(doc, kind, keys)

        for name, module in list(sys.modules.items()):
            if name.startswith("radmat") and getattr(module, "check_keys", None) is check_keys:
                monkeypatch.setattr(module, "check_keys", recording_check_keys)
        readers = (
            CalibrationProfile, RadarContext, VisualContext, EmFeatureVector, ProviderConfig,
        )
        for reader in readers:
            # the current profile version, which the profile checks before its keys
            with pytest.raises(RadmatError):
                reader.from_document({"version": 2})
        # a store entry with an empty epsilon object reaches all three levels
        store, fixtures = tmp_path / "store.json", tmp_path / "fixtures.json"
        write_document(store, {"materials": [{"epsilon": {}}]})
        with pytest.raises(RadmatError):
            load_store(store)
        write_document(fixtures, {"cup": {}})
        with pytest.raises(RadmatError):
            propose(VisualQuery("cup"), ProviderConfig(mode="mock", fixture_path=str(fixtures)))
        assert accepted == self.DOCUMENT_KEYS
