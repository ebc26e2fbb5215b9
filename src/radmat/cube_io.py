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
    52      8     f64 antenna_spacing_m (uniform linear array along x)
    60      4     zero padding

followed by float32 (real, imag) pairs, fast-time fastest-varying, then
chirp, then antenna.  That is `RadarCube`'s own antenna-major storage, so
writing casts the samples as they lie and reading only widens them to
complex128, with no reordering.  Only uniform linear arrays
round-trip through this format; the spacing is reconstructed into a
centered ULA on load.  Every malformed file, header or payload, raises
FormatError.
"""

import struct
from pathlib import Path

import numpy as np

from .docio import read_document, require
from .errors import DocumentError, DomainError, FormatError
from .signal_model import ArrayGeometry, ChirpConfig, RadarCube, SceneTarget, default_geometry

MAGIC = b"RCUB"
VERSION = 1
HEADER_SIZE = 64
_HEADER = struct.Struct("<4sIIIIddddd")  # 52 bytes, padded to 64
# optional scene-target keys with their casts; an absent key keeps SceneTarget's default
_OPTIONAL_TARGET_KEYS = {
    "radial_velocity_m_s": float,
    "facet_normal": lambda v: np.asarray(v, float),
    "facet_area_m2": float,
    "label": str,
}


def _ula_spacing(geometry: ArrayGeometry) -> float:
    """Of the mean step (x[-1] - x[0]) / (n - 1) and its two one-ULP
    neighbours, the spacing from which `ArrayGeometry.uniform_linear`
    rebuilds the element positions most closely (for a centered ULA,
    bit-exactly; the first step x[1] - x[0] often is not exact)."""
    pos = geometry.element_positions
    x = pos[:, 0]
    step = (x[-1] - x[0]) / (len(x) - 1)
    if not (
        np.allclose(pos[:, 1:], 0.0, atol=1e-12)
        and step > 0
        and np.allclose(np.diff(x), step, atol=1e-12)
    ):
        raise DomainError("cube files only support uniform linear arrays along x")
    candidates = (step, np.nextafter(step, 0.0), np.nextafter(step, np.inf))
    errors = [
        np.max(np.abs(ArrayGeometry.uniform_linear(len(x), s).element_positions[:, 0] - x))
        for s in candidates
    ]
    return float(candidates[int(np.argmin(errors))])


def write_cube(path, cube: RadarCube) -> None:
    spacing = _ula_spacing(cube.geometry)
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
        spacing,
    ).ljust(HEADER_SIZE, b"\x00")
    # the cube's antenna-major storage is the payload order
    data = cube.samples.transpose(2, 1, 0).astype(np.complex64)
    Path(path).write_bytes(header + data.tobytes())


def read_cube(path) -> RadarCube:
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"{path}: truncated header")
    try:
        magic, version, n_fast, n_chirp, n_ant, f0, bw, slope, fs, spacing = _HEADER.unpack(
            raw[: _HEADER.size]
        )
    except struct.error as exc:
        raise FormatError(f"{path}: unreadable header") from exc
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = HEADER_SIZE + n_fast * n_chirp * n_ant * 8
    if len(raw) != expected:
        raise FormatError(f"{path}: payload size {len(raw)} does not match header dimensions")
    try:
        config = ChirpConfig(f0, bw, slope, fs, n_fast, n_chirp)
        geometry = ArrayGeometry.uniform_linear(n_ant, spacing)
    except DomainError as exc:
        raise FormatError(f"{path}: invalid header values: {exc}") from exc
    flat = np.frombuffer(raw, dtype="<c8", offset=HEADER_SIZE)
    samples = flat.reshape(n_ant, n_chirp, n_fast).transpose(2, 1, 0)
    try:
        return RadarCube(samples, config, geometry)  # widened to complex128 in one copy
    except DomainError as exc:
        raise FormatError(f"{path}: invalid payload: {exc}") from exc


def chirp_config_from_document(doc: dict) -> ChirpConfig:
    try:
        return ChirpConfig(
            carrier_frequency_hz=float(require(doc, "carrier_frequency_hz", "chirp")),
            bandwidth_hz=float(require(doc, "bandwidth_hz", "chirp")),
            slope_hz_per_s=float(require(doc, "slope_hz_per_s", "chirp")),
            sample_rate_hz=float(require(doc, "sample_rate_hz", "chirp")),
            samples_per_chirp=int(require(doc, "samples_per_chirp", "chirp")),
            chirps_per_frame=int(require(doc, "chirps_per_frame", "chirp")),
        )
    except DomainError as exc:
        raise DocumentError(f"chirp: {exc}") from exc


def geometry_from_document(doc: dict, config: ChirpConfig) -> ArrayGeometry:
    try:
        if "positions_m" in doc:
            return ArrayGeometry(np.asarray(doc["positions_m"], dtype=float))
        count = int(require(doc, "element_count", "array"))
        if "spacing_m" in doc:
            return ArrayGeometry.uniform_linear(count, float(doc["spacing_m"]))
        return default_geometry(config, count)
    except DomainError as exc:
        raise DocumentError(f"array: {exc}") from exc


def load_scene(path):
    """Parse a scene document.

    Returns (targets, config, geometry, noise_power_w, seed).
    """
    doc = read_document(path)
    config = chirp_config_from_document(require(doc, "chirp", "scene"))
    geometry = geometry_from_document(require(doc, "array", "scene"), config)
    targets = []
    for i, entry in enumerate(require(doc, "targets", "scene")):
        try:
            optional = {k: cast(entry[k]) for k, cast in _OPTIONAL_TARGET_KEYS.items() if k in entry}
            targets.append(
                SceneTarget(
                    position_m=np.asarray(require(entry, "position_m", f"target {i}"), float),
                    dielectric_constant=float(
                        require(entry, "dielectric_constant", f"target {i}")
                    ),
                    **optional,
                )
            )
        except DomainError as exc:
            raise DocumentError(f"target {i}: {exc}") from exc
    noise = float(doc.get("noise_power_w", 0.0))
    seed = int(require(doc, "seed", "scene"))
    return targets, config, geometry, noise, seed
