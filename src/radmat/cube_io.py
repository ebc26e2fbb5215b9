"""Binary radar cube files and scene description documents.

Cube format: a fixed 64-byte little-endian header

    offset  size  field
    0       4     magic "RCUB"
    4       4     uint32 version (1)
    8       4     uint32 fast-time samples
    12      4     uint32 chirps
    16      4     uint32 antennas
    20      8     f64 carrier_frequency_hz
    28      8     f64 bandwidth_hz
    36      8     f64 slope_hz_per_s
    44      8     f64 sample_rate_hz
    52      8     f64 antenna_spacing_m (`ArrayGeometry.spacing_m`)
    60      4     zero padding

followed by float32 (real, imag) pairs, fast-time fastest-varying, then
chirp, then antenna: sample (a, m, n) is the pair at byte offset
64 + 8 * ((a * chirps + m) * fast-time samples + n).  That is the
[antenna, chirp, fast_time] order of `RadarCube.samples`, so writing
casts the samples as they lie and reading only widens them to
complex128, with no reordering.  Every malformed file, header or payload,
and every cube that float32 cannot hold raises FormatError; every malformed
scene document, whose values `docio.typed` reads, DocumentError.
"""

import dataclasses
import math
import struct
from pathlib import Path

import numpy as np

from .docio import check_keys, malformed, read_document, typed
from .errors import DocumentError, FormatError
from .signal_model import ArrayGeometry, ChirpConfig, RadarCube, SceneTarget, default_geometry

MAGIC = b"RCUB"
VERSION = 1
HEADER_SIZE = 64
_HEADER = struct.Struct("<4sIIIIddddd")  # 52 bytes, padded to 64
# optional scene-target keys with their types; an absent key keeps SceneTarget's default
_OPTIONAL_TARGET_KEYS = {
    "radial_velocity_m_s": float, "facet_normal": list[float], "facet_area_m2": float, "label": str
}


def write_cube(path, cube: RadarCube) -> None:
    cfg = cube.config
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        cfg.samples_per_chirp,
        cfg.chirps_per_frame,
        cube.geometry.element_count,
        cfg.carrier_frequency_hz,
        cfg.bandwidth_hz,
        cfg.slope_hz_per_s,
        cfg.sample_rate_hz,
        cube.geometry.spacing_m,
    ).ljust(HEADER_SIZE, b"\x00")
    with np.errstate(over="ignore"):
        data = cube.samples.astype(np.complex64)
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: samples exceed the float32 range")
    with open(path, "wb") as file:
        file.writelines((header, data))  # the payload as it lies, with no copy


def read_cube(path) -> RadarCube:
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"{path}: truncated header")
    magic, version, n_fast, n_chirp, n_ant, f0, bw, slope, fs, spacing = _HEADER.unpack(
        raw[: _HEADER.size]
    )
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = HEADER_SIZE + n_fast * n_chirp * n_ant * 8
    if len(raw) != expected:
        raise FormatError(f"{path}: payload size {len(raw)} does not match header dimensions")
    with malformed(FormatError, f"{path}: invalid header values"):
        config = ChirpConfig(f0, bw, slope, fs, n_fast, n_chirp)
        geometry = ArrayGeometry(n_ant, spacing)
    samples = np.frombuffer(raw, dtype="<c8", offset=HEADER_SIZE).reshape(n_ant, n_chirp, n_fast)
    with malformed(FormatError, f"{path}: invalid payload"):
        return RadarCube(samples, config, geometry)  # widened to complex128 in one copy


def chirp_config_from_document(doc: dict) -> ChirpConfig:
    """Every `ChirpConfig` field is required and read by its type with `typed`."""
    fields = dataclasses.fields(ChirpConfig)
    with malformed(DocumentError, "chirp"):
        check_keys(doc, "chirp", [field.name for field in fields])
        return ChirpConfig(**{f.name: typed(f.type, doc[f.name], f.name) for f in fields})


def geometry_from_document(doc: dict, config: ChirpConfig) -> ArrayGeometry:
    with malformed(DocumentError, "array"):
        check_keys(doc, "array", ("element_count", "spacing_m"))
        count = typed(int, doc["element_count"], "element_count")
        if "spacing_m" in doc:
            return ArrayGeometry(count, typed(float, doc["spacing_m"], "spacing_m"))
        return default_geometry(config, count)


def _target_from_entry(entry: dict) -> SceneTarget:
    check_keys(entry, "target", ("position_m", "dielectric_constant", *_OPTIONAL_TARGET_KEYS))
    optional = {k: typed(t, entry[k], k) for k, t in _OPTIONAL_TARGET_KEYS.items() if k in entry}
    return SceneTarget(
        position_m=typed(list[float], entry["position_m"], "position_m"),
        dielectric_constant=typed(float, entry["dielectric_constant"], "dielectric_constant"),
        **optional,
    )


def load_scene(path):
    """Parse a scene document.

    Returns (targets, config, geometry, noise_power_w, seed).
    """
    doc = read_document(path)
    with malformed(DocumentError, "scene"):
        check_keys(doc, "scene", ("kind", "chirp", "array", "targets", "noise_power_w", "seed"))
        config = chirp_config_from_document(doc["chirp"])
        geometry = geometry_from_document(doc["array"], config)
        targets = []
        for i, entry in enumerate(typed(list, doc["targets"], "targets")):
            with malformed(DocumentError, f"target {i}"):
                targets.append(_target_from_entry(entry))
        noise = typed(float, doc.get("noise_power_w", 0.0), "noise_power_w")
        if not (math.isfinite(noise) and noise >= 0.0):
            raise ValueError(f"noise_power_w must be finite and >= 0, not {noise}")
        seed = typed(int, doc["seed"], "seed")
        if seed < 0:
            raise ValueError(f"seed must be a non-negative whole number, not {seed}")
    return targets, config, geometry, noise, seed
