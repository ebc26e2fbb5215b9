import dataclasses
import itertools
import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radmat import (
    ArrayGeometry,
    ChirpConfig,
    FormatError,
    RadarCube,
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


# 2 antennas x 3 chirps x 4 fast-time samples; sample (a, m, n) holds
# 100a + 10m + n + 1 in its real part and its negation in its imaginary part
_ORDER_CONFIG = ChirpConfig(samples_per_chirp=4, chirps_per_frame=3)
_ORDER_GEOMETRY = default_geometry(_ORDER_CONFIG, 2)
_ORDER_INDICES = list(itertools.product(range(2), range(3), range(4)))


def _order_code(a, m, n) -> float:
    return 100.0 * a + 10.0 * m + n + 1.0


def _payload_offset(a, m, n) -> int:
    # the cube_io docstring: 64 + 8 * ((a * chirps + m) * fast-time samples + n)
    return 64 + 8 * ((a * 3 + m) * 4 + n)


def test_payload_order_written_as_documented(tmp_path):
    samples = np.zeros((2, 3, 4), complex)
    for a, m, n in _ORDER_INDICES:
        samples[a, m, n] = complex(_order_code(a, m, n), -_order_code(a, m, n))
    path = tmp_path / "order.rcub"
    write_cube(path, RadarCube(samples, _ORDER_CONFIG, _ORDER_GEOMETRY))
    raw = path.read_bytes()
    assert len(raw) == 64 + 8 * len(_ORDER_INDICES)
    for a, m, n in _ORDER_INDICES:
        pair = struct.unpack_from("<ff", raw, _payload_offset(a, m, n))
        assert pair == (_order_code(a, m, n), -_order_code(a, m, n)), (a, m, n)


def test_hand_packed_payload_read_in_documented_order(tmp_path):
    cfg = _ORDER_CONFIG
    header = struct.pack(
        "<4sIIIIddddd", b"RCUB", 1, 4, 3, 2, cfg.carrier_frequency_hz, cfg.bandwidth_hz,
        cfg.slope_hz_per_s, cfg.sample_rate_hz, _ORDER_GEOMETRY.spacing_m,
    ).ljust(64, b"\x00")
    payload = bytearray(8 * len(_ORDER_INDICES))
    for a, m, n in _ORDER_INDICES:
        code = _order_code(a, m, n)
        struct.pack_into("<ff", payload, _payload_offset(a, m, n) - 64, code, -code)
    path = tmp_path / "packed.rcub"
    path.write_bytes(header + bytes(payload))
    cube = read_cube(path)
    assert (cube.config, cube.geometry) == (cfg, _ORDER_GEOMETRY)
    for a, m, n in _ORDER_INDICES:
        code = _order_code(a, m, n)
        assert cube.samples[a, m, n] == complex(code, -code), (a, m, n)


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


def test_bad_magic_refused_before_the_payload_is_read(tmp_path):
    path = tmp_path / "large.rcub"
    with open(path, "wb") as file:
        file.write(b"XXXX")
        file.truncate(16 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="magic"):
            read_cube(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cube_read_from_a_pipe(tmp_path, sample_cube):
    path, pipe = tmp_path / "frame.rcub", tmp_path / "frame.pipe"
    write_cube(path, sample_cube)
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    try:
        cube = read_cube(pipe)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert cube.samples.tobytes() == read_cube(path).samples.tobytes()


def _traced_peak_of_format_error(path) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="size"):
            read_cube(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversized_payload_refused_one_byte_past_its_declared_size(tmp_path, sample_cube):
    # a valid 600x64x8 header, whose payload is 2,457,600 B, then 16 MiB of zeros
    path = tmp_path / "large.rcub"
    write_cube(path, sample_cube)
    header = path.read_bytes()[:64]
    with open(path, "wb") as file:
        file.write(header)
        file.truncate(64 + (16 << 20))
    assert _traced_peak_of_format_error(path) < 3 << 20


@pytest.mark.parametrize("through_pipe", [False, True], ids=["file", "pipe"])
def test_declared_size_beyond_the_file_is_never_allocated(tmp_path, valid_cube_bytes, through_pipe):
    header = bytearray(valid_cube_bytes[:64])
    struct.pack_into("<III", header, 8, 1 << 20, 1 << 12, 8)  # 256 GiB declared
    path = tmp_path / "huge.rcub"
    path.write_bytes(bytes(header) + bytes(1024))
    if not through_pipe:
        assert _traced_peak_of_format_error(path) < 2 << 20
        return
    pipe = tmp_path / "huge.pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    try:
        assert _traced_peak_of_format_error(pipe) < 2 << 20
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


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
