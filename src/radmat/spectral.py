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


@dataclass(frozen=True)
class RangeDopplerMap:
    """Antenna-accumulated magnitude map plus per-antenna complex spectra."""

    magnitudes: np.ndarray  # [range_bins, doppler_bins]
    range_bin_m: float
    velocity_bin_m_s: float
    # [range_bins, doppler_bins, antennas], complex: a transposed view over
    # antenna-major [antennas, range_bins, doppler_bins] memory
    per_antenna: np.ndarray

    def __post_init__(self):
        if np.any(self.magnitudes < 0) or not np.all(np.isfinite(self.magnitudes)):
            raise DomainError("map magnitudes must be finite and non-negative")

    @property
    def zero_doppler_bin(self) -> int:
        return self.magnitudes.shape[1] // 2

    def to_document(self) -> dict:
        return {
            "kind": "range_doppler_map",
            "range_bins": int(self.magnitudes.shape[0]),
            "doppler_bins": int(self.magnitudes.shape[1]),
            "range_bin_m": self.range_bin_m,
            "velocity_bin_m_s": self.velocity_bin_m_s,
            "magnitudes_row_major": [float(x) for x in self.magnitudes.ravel()],
        }


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


def range_doppler(cube: RadarCube) -> RangeDopplerMap:
    """2D FFT over fast time then chirps, magnitudes summed over antennas.

    The FFTs run one antenna at a time along contiguous axes: the range
    FFT along the last axis of the antenna's contiguous [chirp, fast]
    block, then the Doppler FFT along the last axis of the contiguous
    [range, chirp] transpose of the result.  Each 1-D transform sees the
    same samples as a whole-cube FFT along axis 0 and then axis 1 would,
    so the per-antenna spectra are bit-identical to it; only the order in
    which the antenna magnitudes are summed differs.
    """
    cfg = cube.config
    if cfg.chirps_per_frame < 2:
        raise DomainError("range-Doppler processing needs at least 2 chirps")
    n_fft_r, range_bin_m = _range_axis(cfg)
    n_fft_d = _next_pow2(cfg.chirps_per_frame)
    half = n_fft_d // 2  # n_fft_d is even, so fftshift swaps two equal halves
    spectra = np.empty((cube.samples.shape[2], n_fft_r, n_fft_d), dtype=complex)
    for a, spectrum in enumerate(spectra):  # spectrum: [range, doppler] of antenna a
        chirps = np.ascontiguousarray(cube.samples[:, :, a].T)  # [chirp, fast]
        by_range = np.ascontiguousarray(np.fft.fft(chirps, n=n_fft_r, axis=1).T)
        doppler = np.fft.fft(by_range, n=n_fft_d, axis=1)
        spectrum[:, :half] = doppler[:, half:]
        spectrum[:, half:] = doppler[:, :half]
    magnitudes = np.abs(spectra).sum(axis=0)
    velocity_bin_m_s = cfg.wavelength_m / (2.0 * n_fft_d * cfg.chirp_duration_s)
    return RangeDopplerMap(magnitudes, range_bin_m, velocity_bin_m_s, spectra.transpose(1, 2, 0))


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
    """Strongest gated cell at least `threshold_db` above the map median.

    Raises NoTargetError when nothing inside the gate clears the threshold.
    """
    lo_m, hi_m = float(gate_m[0]), float(gate_m[1])
    n_range = rd_map.magnitudes.shape[0]
    extent_m = n_range * rd_map.range_bin_m
    if not (0.0 <= lo_m < hi_m <= extent_m):
        raise DomainError(
            f"gate [{lo_m}, {hi_m}] m outside the map extent [0, {extent_m:.3f}] m"
        )
    lo_bin = int(np.ceil(lo_m / rd_map.range_bin_m))
    hi_bin = int(np.floor(hi_m / rd_map.range_bin_m))
    gated = rd_map.magnitudes[lo_bin : hi_bin + 1]
    if gated.size == 0:
        raise DomainError("gate narrower than one range bin")
    flat_peak = int(np.argmax(gated))
    r_off, d_bin = np.unravel_index(flat_peak, gated.shape)
    r_bin = lo_bin + int(r_off)
    peak = float(gated[r_off, d_bin])
    threshold = float(np.median(rd_map.magnitudes)) * 10.0 ** (threshold_db / 20.0)
    if peak <= 0.0 or peak < threshold:
        raise NoTargetError(
            f"no cell in gate [{lo_m}, {hi_m}] m above {threshold_db:.1f} dB "
            "over the map median"
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
        gated_signal=rd_map.per_antenna[r_bin, d_bin, :].copy(),
    )


def detection_voxel(detection: TargetDetection) -> np.ndarray:
    """Cartesian center of the detected cell (azimuth plane, boresight +z)."""
    return detection.range_m * np.array(
        [np.sin(detection.angle_rad), 0.0, np.cos(detection.angle_rad)]
    )
