import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radmat import (
    ArrayGeometry,
    ChirpConfig,
    FormatError,
    SceneTarget,
    default_geometry,
    synthesize_frame,
)
from radmat.cube_io import load_scene, read_cube, write_cube
from radmat.errors import DocumentError
from radmat.docio import write_document
from conftest import make_plate


@pytest.fixture()
def sample_cube(config, geometry):
    target = make_plate([0.02, 0.0, 0.3], 4.0)
    return synthesize_frame([target], config, geometry, 1e-6, 5)


def test_round_trip_preserves_samples_and_config(tmp_path, sample_cube):
    path = tmp_path / "frame.rcub"
    write_cube(path, sample_cube)
    loaded = read_cube(path)
    # payload is float32, so compare at that precision
    assert np.allclose(loaded.samples, sample_cube.samples, rtol=1e-6, atol=1e-12)
    assert loaded.config == sample_cube.config
    assert np.allclose(
        loaded.geometry.element_positions, sample_cube.geometry.element_positions
    )


@pytest.mark.parametrize("carrier_hz", [24e9, 60e9, 61.25e9, 77e9, 79e9, 122e9])
def test_round_trip_rebuilds_ula_positions_exactly(tmp_path, carrier_hz):
    # 31 element counts x 4 spacings per carrier; x[1] - x[0] as the written
    # spacing rebuilds only 119 of these 744 arrays exactly
    config = ChirpConfig(
        carrier_frequency_hz=carrier_hz, samples_per_chirp=2, chirps_per_frame=1
    )
    for fraction in (0.25, 0.37, 0.5, 1.0):
        for count in range(2, 33):
            geometry = ArrayGeometry(count, config.wavelength_m * fraction)
            path = tmp_path / f"ula_{fraction}_{count}.rcub"
            write_cube(path, synthesize_frame([], config, geometry, 0.0, 1))
            loaded = read_cube(path).geometry
            assert loaded == geometry, (fraction, count)
            assert np.array_equal(
                loaded.element_positions, geometry.element_positions
            ), (fraction, count)


def test_magic_bytes_present(tmp_path, sample_cube):
    path = tmp_path / "frame.rcub"
    write_cube(path, sample_cube)
    assert path.read_bytes()[:4] == b"RCUB"


def test_corrupt_magic_rejected(tmp_path, sample_cube):
    path = tmp_path / "frame.rcub"
    write_cube(path, sample_cube)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        read_cube(path)


def test_truncated_payload_rejected(tmp_path, sample_cube):
    path = tmp_path / "frame.rcub"
    write_cube(path, sample_cube)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError, match="size"):
        read_cube(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "frame.rcub"
    path.write_bytes(b"RCUB\x01")
    with pytest.raises(FormatError):
        read_cube(path)


# A small valid cube file: 8 samples x 2 chirps x 2 antennas, float32 pairs.
_SMALL_CONFIG = ChirpConfig(samples_per_chirp=8, chirps_per_frame=2)
_HEADER_FLOATS = {
    "carrier_frequency_hz": 20,
    "bandwidth_hz": 28,
    "slope_hz_per_s": 36,
    "sample_rate_hz": 44,
    "antenna_spacing_m": 52,
}
_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.fixture(scope="module")
def valid_cube_bytes(tmp_path_factory):
    target = make_plate([0.0, 0.0, 0.3], 4.0)
    cube = synthesize_frame(
        [target], _SMALL_CONFIG, default_geometry(_SMALL_CONFIG, 2), 1e-6, 5
    )
    path = tmp_path_factory.mktemp("valid") / "small.rcub"
    write_cube(path, cube)
    read_cube(path)  # the uncorrupted file loads
    return path.read_bytes()


@pytest.fixture(scope="module")
def corrupt_path(tmp_path_factory):
    """A new file path per call: rewriting one file in place can wait on a
    data flush for longer than Hypothesis's per-example deadline."""
    directory = tmp_path_factory.mktemp("corrupt")
    names = itertools.count()
    return lambda: directory / f"corrupt_{next(names)}.rcub"


class TestCorruptCubesRaiseFormatError:
    """Every corrupt or truncated cube file raises FormatError, and nothing else."""

    @given(data=st.data())
    def test_any_truncation(self, valid_cube_bytes, corrupt_path, data):
        length = data.draw(st.integers(0, len(valid_cube_bytes) - 1), label="length")
        path = corrupt_path()
        path.write_bytes(valid_cube_bytes[:length])
        with pytest.raises(FormatError):
            read_cube(path)

    @given(field=st.sampled_from(sorted(_HEADER_FLOATS)), value=st.sampled_from(_NON_FINITE))
    def test_non_finite_header_float(self, valid_cube_bytes, corrupt_path, field, value):
        raw = bytearray(valid_cube_bytes)
        offset = _HEADER_FLOATS[field]
        raw[offset : offset + 8] = struct.pack("<d", value)
        path = corrupt_path()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="header"):
            read_cube(path)

    @given(data=st.data())
    def test_nan_at_any_payload_offset(self, valid_cube_bytes, corrupt_path, data):
        floats = (len(valid_cube_bytes) - 64) // 4
        index = data.draw(st.integers(0, floats - 1), label="float32 index")
        raw = bytearray(valid_cube_bytes)
        raw[64 + 4 * index : 68 + 4 * index] = struct.pack("<f", math.nan)
        path = corrupt_path()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite"):
            read_cube(path)


def _scene_doc(config):
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
        "targets": [
            {
                "label": "plate",
                "position_m": [0.0, 0.0, 0.3],
                "dielectric_constant": 4.0,
                "facet_area_m2": 0.04,
            }
        ],
        "noise_power_w": 1e-6,
        "seed": 3,
    }


def test_scene_document_round_trip(tmp_path, config):
    path = tmp_path / "scene.json"
    write_document(path, _scene_doc(config))
    targets, cfg, geometry, noise, seed = load_scene(path)
    assert cfg == config
    assert geometry.element_count == 8
    assert len(targets) == 1 and targets[0].label == "plate"
    assert noise == 1e-6 and seed == 3
    # default array spacing is a quarter wavelength
    spacing = np.diff(geometry.element_positions[:, 0])
    assert np.allclose(spacing, cfg.wavelength_m / 4.0)


def test_omitted_target_keys_keep_scene_target_defaults(tmp_path, config):
    doc = _scene_doc(config)
    doc["targets"] = [{"position_m": [0.0, 0.1, 0.3], "dielectric_constant": 4.0}]
    path = tmp_path / "scene.json"
    write_document(path, doc)
    (target,), _, geometry, _, _ = load_scene(path)
    expected = SceneTarget(np.array([0.0, 0.1, 0.3]), dielectric_constant=4.0)
    for field in dataclasses.fields(SceneTarget):
        assert np.array_equal(getattr(target, field.name), getattr(expected, field.name))
    np.testing.assert_array_equal(
        geometry.element_positions, default_geometry(config, 8).element_positions
    )


def test_scene_document_missing_field(tmp_path, config):
    doc = _scene_doc(config)
    del doc["targets"][0]["dielectric_constant"]
    path = tmp_path / "scene.json"
    write_document(path, doc)
    with pytest.raises(DocumentError, match="dielectric_constant"):
        load_scene(path)


def test_scene_document_invalid_target(tmp_path, config):
    doc = _scene_doc(config)
    doc["targets"][0]["dielectric_constant"] = 0.5
    path = tmp_path / "scene.json"
    write_document(path, doc)
    with pytest.raises(DocumentError, match="target 0"):
        load_scene(path)


@pytest.mark.parametrize("normal", [None, [0.0, None, -1.0]])
def test_scene_document_null_facet_normal(tmp_path, config, normal):
    doc = _scene_doc(config)
    doc["targets"][0]["facet_normal"] = normal
    path = tmp_path / "scene.json"
    write_document(path, doc)
    with pytest.raises(DocumentError, match="target 0"):
        load_scene(path)
