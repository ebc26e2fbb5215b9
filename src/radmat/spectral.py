"""Range-Doppler / range-angle maps, beamforming, and target gating.

Both FFT axes are zero-padded to the next power of two.  The beamformer
is conventional delay-and-sum with two-way steering phases matching the
echo model, exp(-j*4*pi*(p_j . u(theta))/lambda), so a target appears at
its true azimuth.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoTargetError
from .signal_model import SPEED_OF_LIGHT, ArrayGeometry, RadarCube

DEFAULT_ANGLE_GRID_RAD = np.radians(np.linspace(-90.0, 90.0, 181))
DEFAULT_THRESHOLD_DB = 12.0


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _range_axis(cfg) -> tuple[int, float]:
    """Zero-padded range FFT size and the range width of one padded bin."""
    n_fft_r = _next_pow2(cfg.samples_per_chirp)
    return n_fft_r, SPEED_OF_LIGHT * cfg.sample_rate_hz / (2.0 * cfg.slope_hz_per_s * n_fft_r)


def _gate_rows(gate_m, range_bin_m: float, range_bins: int) -> tuple[int, int]:
    """First and one-past-last range row inside the gate [lo, hi] m.

    The gate must lie within the map extent [0, range_bins * range_bin_m] m
    and cover at least one bin; a top edge at the extent keeps the last row.
    """
    lo_m, hi_m = float(gate_m[0]), float(gate_m[1])
    extent_m = range_bins * range_bin_m
    if not (0.0 <= lo_m < hi_m <= extent_m):
        raise DomainError(
            f"gate [{lo_m}, {hi_m}] m outside the map extent [0, {extent_m:.3f}] m"
        )
    lo = int(np.ceil(lo_m / range_bin_m))
    hi = min(int(np.floor(hi_m / range_bin_m)) + 1, range_bins)
    if lo >= hi:
        raise DomainError("gate narrower than one range bin")
    return lo, hi


@dataclass(frozen=True)
class RangeDopplerMap:
    """Antenna-accumulated magnitude map plus per-antenna complex spectra.

    A gated map holds only some range rows: row i of its arrays is range
    bin `first_range_bin + i` of the full map, which has `full_range_bins`
    rows.  A full map has `first_range_bin` 0.
    """

    magnitudes: np.ndarray  # [range rows, doppler_bins]
    range_bin_m: float
    velocity_bin_m_s: float
    # [range rows, doppler_bins, antennas], complex: a transposed view over
    # antenna-major [antennas, range rows, doppler_bins] memory
    per_antenna: np.ndarray
    first_range_bin: int
    full_range_bins: int

    def __post_init__(self):
        if np.any(self.magnitudes < 0) or not np.all(np.isfinite(self.magnitudes)):
            raise DomainError("map magnitudes must be finite and non-negative")

    @property
    def zero_doppler_bin(self) -> int:
        return self.magnitudes.shape[1] // 2

    def to_document(self) -> dict:
        doc = {
            "kind": "range_doppler_map",
            "range_bins": int(self.magnitudes.shape[0]),
            "doppler_bins": int(self.magnitudes.shape[1]),
            "range_bin_m": self.range_bin_m,
            "velocity_bin_m_s": self.velocity_bin_m_s,
            "magnitudes_row_major": [float(x) for x in self.magnitudes.ravel()],
        }
        if self.magnitudes.shape[0] != self.full_range_bins:
            doc.update(first_range_bin=self.first_range_bin, full_range_bins=self.full_range_bins)
        return doc


@dataclass(frozen=True)
class RangeAngleMap:
    magnitudes: np.ndarray  # [range_bins, angle_bins]
    angle_grid_rad: np.ndarray
    range_bin_m: float

    def __post_init__(self):
        grid = np.asarray(self.angle_grid_rad, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise DomainError("angle grid must be a non-empty 1D array")
        if np.any(np.diff(grid) <= 0):
            raise DomainError("angle grid must be strictly increasing")
        if grid[0] < -np.pi / 2 - 1e-12 or grid[-1] > np.pi / 2 + 1e-12:
            raise DomainError("angle grid must lie within [-pi/2, pi/2]")
        object.__setattr__(self, "angle_grid_rad", grid)

    def to_document(self) -> dict:
        return {
            "kind": "range_angle_map",
            "range_bins": int(self.magnitudes.shape[0]),
            "angle_bins": int(self.magnitudes.shape[1]),
            "range_bin_m": self.range_bin_m,
            "angle_grid_rad": [float(a) for a in self.angle_grid_rad],
            "magnitudes_row_major": [float(x) for x in self.magnitudes.ravel()],
        }


@dataclass(frozen=True)
class TargetDetection:
    """Detected cell with the per-antenna complex signal at its range bin."""

    range_m: float
    velocity_m_s: float
    angle_rad: float
    range_bin: int
    angle_bin: int
    doppler_bin: int
    gated_signal: np.ndarray  # complex, one value per antenna

    def __post_init__(self):
        if np.linalg.norm(self.gated_signal) <= 0:
            raise DomainError("gated signal must be non-zero")


def range_doppler(cube: RadarCube, gate_m=None) -> RangeDopplerMap:
    """2D FFT over fast time then chirps, magnitudes summed over antennas.

    With a gate [lo, hi] m only the range rows inside it are kept after the
    range FFT, and the Doppler FFT, shift and antenna sum run on those rows
    alone; with none the map holds every row.  The FFTs run one antenna at
    a time along contiguous axes: the zero-padded range FFT along the last
    axis of the antenna's contiguous [chirp, fast] block, then the Doppler
    FFT along the last axis of the contiguous [range, chirp] transpose of
    the kept rows.  Each 1-D transform sees the same samples as a
    whole-cube FFT along axis 0 and then axis 1 would, so a row is
    bit-identical whether or not the map is gated.
    """
    cfg = cube.config
    if cfg.chirps_per_frame < 2:
        raise DomainError("range-Doppler processing needs at least 2 chirps")
    n_fft_r, range_bin_m = _range_axis(cfg)
    lo, hi = (0, n_fft_r) if gate_m is None else _gate_rows(gate_m, range_bin_m, n_fft_r)
    n_fft_d = _next_pow2(cfg.chirps_per_frame)
    half = n_fft_d // 2  # n_fft_d is even, so fftshift swaps two equal halves
    spectra = np.empty((cube.samples.shape[2], hi - lo, n_fft_d), dtype=complex)
    for a, spectrum in enumerate(spectra):  # spectrum: [range, doppler] of antenna a
        chirps = np.ascontiguousarray(cube.samples[:, :, a].T)  # [chirp, fast]
        by_range = np.fft.fft(chirps, n=n_fft_r, axis=1)[:, lo:hi]
        doppler = np.fft.fft(np.ascontiguousarray(by_range.T), n=n_fft_d, axis=1)
        spectrum[:, :half] = doppler[:, half:]
        spectrum[:, half:] = doppler[:, :half]
    magnitudes = np.abs(spectra).sum(axis=0)
    velocity_bin_m_s = cfg.wavelength_m / (2.0 * n_fft_d * cfg.chirp_duration_s)
    return RangeDopplerMap(
        magnitudes, range_bin_m, velocity_bin_m_s, spectra.transpose(1, 2, 0), lo, n_fft_r
    )


def steering_matrix(geometry: ArrayGeometry, wavelength_m: float, angle_grid_rad) -> np.ndarray:
    """Delay-and-sum weights, shape [antennas, angles]."""
    grid = np.asarray(angle_grid_rad, dtype=float)
    unit = np.stack([np.sin(grid), np.zeros_like(grid), np.cos(grid)])  # (3, G)
    proj = geometry.element_positions @ unit  # (N, G)
    return np.exp(-4j * np.pi * proj / wavelength_m)


def range_angle(cube: RadarCube, angle_grid_rad=None) -> RangeAngleMap:
    """Beamform the zero-Doppler range spectra over an azimuth grid."""
    if cube.geometry.element_count < 2:
        raise DomainError("beamforming needs at least 2 antennas")
    grid = DEFAULT_ANGLE_GRID_RAD if angle_grid_rad is None else np.asarray(angle_grid_rad, float)
    if grid.size == 0:
        raise DomainError("angle grid must not be empty")
    cfg = cube.config
    n_fft_r, range_bin_m = _range_axis(cfg)
    chirp_mean = cube.samples.mean(axis=1)  # the FFT is linear: average chirps first
    spectra = np.fft.fft(chirp_mean, n=n_fft_r, axis=0)  # (R, N)
    weights = steering_matrix(cube.geometry, cfg.wavelength_m, grid)  # (N, G)
    magnitudes = np.abs(spectra @ weights)
    return RangeAngleMap(magnitudes, grid, range_bin_m)


def half_power_beamwidth_rad(geometry: ArrayGeometry, wavelength_m: float) -> float:
    """Numeric HPBW of the boresight beam under two-way steering phases."""
    grid = np.radians(np.linspace(-90.0, 90.0, 18001))
    pattern = np.abs(steering_matrix(geometry, wavelength_m, grid).sum(axis=0))
    center = int(np.argmax(pattern))
    below = np.flatnonzero(pattern < pattern.max() / np.sqrt(2.0))
    left, right = below[below < center], below[below > center]
    lo = left[-1] + 1 if left.size else 0
    hi = right[0] - 1 if right.size else grid.size - 1
    return float(grid[hi] - grid[lo])


def detect_target(
    rd_map: RangeDopplerMap,
    ra_map: RangeAngleMap,
    gate_m,
    threshold_db: float = DEFAULT_THRESHOLD_DB,
) -> TargetDetection:
    """Strongest gated cell, at least `threshold_db` over the gate rows' median.

    The threshold is `threshold_db` above the median of the gate's range
    rows, so a full map and a map gated to the same gate give the same
    detection.  A gated `rd_map` must hold every row of the gate.  Raises
    NoTargetError when nothing inside the gate clears the threshold.
    """
    lo, hi = _gate_rows(gate_m, rd_map.range_bin_m, rd_map.full_range_bins)
    first = rd_map.first_range_bin
    if lo < first or hi > first + rd_map.magnitudes.shape[0]:
        raise DomainError(
            f"gate rows {lo}-{hi - 1} are not all held by the map "
            f"(rows {first}-{first + rd_map.magnitudes.shape[0] - 1})"
        )
    gated = rd_map.magnitudes[lo - first : hi - first]
    r_off, d_bin = np.unravel_index(int(np.argmax(gated)), gated.shape)
    r_bin = lo + int(r_off)
    peak = float(gated[r_off, d_bin])
    threshold = float(np.median(gated)) * 10.0 ** (threshold_db / 20.0)
    if peak <= 0.0 or peak < threshold:
        raise NoTargetError(
            f"no cell in gate [{float(gate_m[0])}, {float(gate_m[1])}] m above "
            f"{threshold_db:.1f} dB over the median of the gate's range rows"
        )
    a_bin = int(np.argmax(ra_map.magnitudes[r_bin]))
    velocity = (rd_map.zero_doppler_bin - int(d_bin)) * rd_map.velocity_bin_m_s
    return TargetDetection(
        range_m=r_bin * rd_map.range_bin_m,
        velocity_m_s=float(velocity),
        angle_rad=float(ra_map.angle_grid_rad[a_bin]),
        range_bin=r_bin,
        angle_bin=a_bin,
        doppler_bin=int(d_bin),
        gated_signal=rd_map.per_antenna[r_bin - first, d_bin, :].copy(),
    )


def detection_voxel(detection: TargetDetection) -> np.ndarray:
    """Cartesian center of the detected cell (azimuth plane, boresight +z)."""
    return detection.range_m * np.array(
        [np.sin(detection.angle_rad), 0.0, np.cos(detection.angle_rad)]
    )
