"""Range-Doppler / range-angle maps, beamforming, and target gating.

Both spectral axes are sampled as if zero-padded to the next power of
two.  A map of few range rows, such as the distance gate's, computes
those rows as a direct DFT; a wider map takes the padded range FFT.  The
beamformer is conventional delay-and-sum with two-way steering phases
matching the echo model, exp(-j*4*pi*(p_j . u(theta))/lambda), so a
target appears at its true azimuth.  A gated frame is range-transformed
once: its range-angle map beamforms the gated range-Doppler map's held
rows at the detected Doppler bin.

The constants a transform needs depend only on the frame shape: the
twiddle table, a gate's DFT block and the default grid's steering
weights.  Each is built once per shape, kept in a small bounded cache
and returned read-only; no frame's data is kept.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoTargetError
from .signal_model import SPEED_OF_LIGHT, ArrayGeometry, RadarCube

DEFAULT_ANGLE_GRID_RAD = np.radians(np.linspace(-90.0, 90.0, 181))
DEFAULT_ANGLE_GRID_RAD.flags.writeable = False  # the cached steering weights assume it
# a gated cell is a target when it stands this far over the median of the
# gate's range rows
THRESHOLD_DB = 12.0
# maps of fewer range rows than this take the direct DFT of those rows;
# from here on the padded FFT, whose cost does not grow with the rows, wins
DFT_CROSSOVER_ROWS = 80
# rows a gated map holds beyond each gate edge, for the PRCA region: one
# echo's half-power range main lobe is 0.886*n_fft/N < 1.8 padded bins
# wide (N samples padded to n_fft < 2N), so it covers at most two adjacent
# rows, and a region grown from the echo's peak row in the gate reaches at
# most one row out
PRCA_MARGIN_ROWS = 1


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _range_axis(cfg) -> tuple[int, float]:
    """Zero-padded range FFT size and the range width of one padded bin."""
    n_fft_r = _next_pow2(cfg.samples_per_chirp)
    return n_fft_r, SPEED_OF_LIGHT * cfg.sample_rate_hz / (2.0 * cfg.slope_hz_per_s * n_fft_r)


def _doppler_axis(cfg) -> tuple[int, float]:
    """Zero-padded Doppler FFT size and the velocity width of one bin."""
    n_fft_d = _next_pow2(cfg.chirps_per_frame)
    return n_fft_d, cfg.wavelength_m / (2.0 * n_fft_d * cfg.chirp_duration_s)


def _fft_bin(doppler_bin, n_fft_d: int):
    """FFT bin of a map's Doppler bin (an int or an array): a shift by half the even size."""
    return (doppler_bin + n_fft_d // 2) % n_fft_d


@functools.lru_cache(maxsize=8)
def _twiddles(n: int) -> np.ndarray:
    """exp(-2j*pi*m/n) for m = 0..n-1, n a power of two; built once per n, read-only.

    Only the first octant is evaluated, with `math.cos`/`math.sin`; the
    rest follows from the circle's exact symmetries, so the table does
    not depend on numpy's SIMD math and m = n/4 is exactly -1j.
    """
    size = max(n, 8)
    eighth = size // 8
    angles = [2.0 * math.pi * m / size for m in range(eighth + 1)]
    cos = np.array([math.cos(a) for a in angles])
    sin = np.array([math.sin(a) for a in angles])
    # the first quadrant: cos(pi/2 - a) = sin(a)
    quadrant = np.concatenate([cos, sin[eighth - 1 : 0 : -1]]) - 1j * np.concatenate(
        [sin, cos[eighth - 1 : 0 : -1]]
    )
    table = np.concatenate([quadrant, -1j * quadrant, -quadrant, 1j * quadrant])[:: size // n]
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _dft_block(samples: int, n_fft_r: int, lo: int, hi: int) -> np.ndarray:
    """E[n, k] = exp(-2j*pi*n*k/n_fft_r) for fast-time samples n and rows lo..hi-1.

    Gathered from `_twiddles` at the exact index (n*k) mod n_fft_r; built
    once per (frame shape, rows), read-only.
    """
    index = np.outer(np.arange(samples), np.arange(lo, hi)) % n_fft_r
    block = _twiddles(n_fft_r)[index]
    block.flags.writeable = False
    return block


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


def median(values: np.ndarray) -> float:
    """`np.median` of all of `values` (non-empty), to the byte, without `numpy.ma`.

    The first `np.median` of a process imports all of `numpy.ma` for its
    NaN check.  Without a NaN, one partition at the upper middle rank
    places both middle values: the lower one of an even size is the
    largest value below it.  They are averaged with the same `mean` as in
    `np.median`, which adds +0.0 to them, so the sign of a zero in a tie
    does not show.  A NaN sorts last, and `np.median` returns the last
    value of its partition; with a NaN present this partitions at
    `np.median`'s ranks, the middle one or two and the last, so that it
    returns the same NaN.
    """
    size = np.size(values)
    half = size // 2
    middle = [half] if size % 2 else [half - 1, half]
    # axis=None partitions one flattened copy, as `np.median` does
    if np.isnan(values).any():
        return float(np.partition(values, middle + [-1], axis=None)[-1])
    part = np.partition(values, half, axis=None)
    if size % 2 == 0:
        part[half - 1] = part[:half].max()
    return float(part[middle[0] : half + 1].mean())


@dataclass(frozen=True)
class RangeDopplerMap:
    """Per-antenna complex spectra, [antenna, range row, Doppler bin], and their antenna sum.

    A gated map holds only some range rows: range row i is range bin
    `first_range_bin + i` of the full map, which has `full_range_bins`
    rows.  A full map has `first_range_bin` 0.
    """

    magnitudes: np.ndarray  # [range rows, doppler_bins]
    range_bin_m: float
    velocity_bin_m_s: float
    per_antenna: np.ndarray  # [antennas, range rows, doppler_bins], complex, C-contiguous
    first_range_bin: int
    full_range_bins: int
    cube: RadarCube  # the samples, for the cell readout of `detect_target`

    def __post_init__(self):
        if np.any(self.magnitudes < 0) or not np.all(np.isfinite(self.magnitudes)):
            raise DomainError("map magnitudes must be finite and non-negative")

    @property
    def zero_doppler_bin(self) -> int:
        """The map bin whose `_fft_bin` is FFT bin 0."""
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
    """Beamformed magnitude map over range rows and the one angle grid.

    `magnitudes` has a column per angle of the class's `angle_grid_rad`,
    `DEFAULT_ANGLE_GRID_RAD`.  Like `RangeDopplerMap`, a gated map holds
    only some range rows: row i is range bin `first_range_bin + i` of a
    full map of `full_range_bins` rows.  A full map has `first_range_bin` 0.
    """

    angle_grid_rad = DEFAULT_ANGLE_GRID_RAD  # unannotated: a class attribute, not a field
    magnitudes: np.ndarray  # [range rows, angle bins]
    range_bin_m: float
    first_range_bin: int
    full_range_bins: int

    def __post_init__(self):
        if self.magnitudes.ndim != 2 or self.magnitudes.shape[1] != self.angle_grid_rad.size:
            raise DomainError("range-angle magnitudes need one column per grid angle")

    def to_document(self) -> dict:
        doc = {
            "kind": "range_angle_map",
            "range_bins": int(self.magnitudes.shape[0]),
            "angle_bins": int(self.magnitudes.shape[1]),
            "range_bin_m": self.range_bin_m,
            "angle_grid_rad": [float(a) for a in self.angle_grid_rad],
            "magnitudes_row_major": [float(x) for x in self.magnitudes.ravel()],
        }
        if self.magnitudes.shape[0] != self.full_range_bins:
            doc.update(first_range_bin=self.first_range_bin, full_range_bins=self.full_range_bins)
        return doc


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


def _range_rows(cube: RadarCube, lo: int, hi: int, n_fft_r: int):
    """[antenna, chirp, row] range spectra of padded range rows lo..hi-1, in antenna blocks.

    Fewer than `DFT_CROSSOVER_ROWS` rows come as one block of every
    antenna, from one product [antenna*chirp, fast] @ E[fast, rows] with
    the DFT block `_dft_block`, built once per frame shape and rows; more
    rows come one antenna at a time, from the range FFT of its contiguous
    chirps copied into one zero-padded block.
    """
    cfg = cube.config
    if hi - lo < DFT_CROSSOVER_ROWS:
        block = _dft_block(cfg.samples_per_chirp, n_fft_r, lo, hi)
        rows = cube.samples.reshape(-1, cfg.samples_per_chirp) @ block
        yield rows.reshape(cube.geometry.element_count, cfg.chirps_per_frame, hi - lo)
        return
    chirps = np.zeros((1, cfg.chirps_per_frame, n_fft_r), dtype=complex)  # zero-padded
    for samples in cube.samples:
        chirps[0, :, : cfg.samples_per_chirp] = samples
        yield np.fft.fft(chirps, axis=2)[:, :, lo:hi]


def range_doppler(cube: RadarCube, gate_m=None) -> RangeDopplerMap:
    """Range spectrum then Doppler FFT over chirps, magnitudes summed over antennas.

    With a gate [lo, hi] m the map holds only the range rows inside it
    and `PRCA_MARGIN_ROWS` beyond each edge, clamped at the map's edges;
    with none it holds every row.  `_range_rows` picks the strategy by the
    row count: a gate's few rows come from a direct DFT, equal to the
    padded FFT's rows to rounding (tested within 1e-12 of the map peak),
    and a wide map from the padded FFT, so a row is bit-identical in every
    map of at least `DFT_CROSSOVER_ROWS` rows.  The Doppler FFT and shift
    run on the held rows alone, once per antenna block of `_range_rows`
    (all antennas of a gated map, one antenna of a wide one), along the
    last axis of the block's contiguous [antenna, range, chirp]
    transpose, into `per_antenna`, each block's magnitudes summed in turn.
    The twiddle table and a gate's DFT block are built once per frame shape.
    """
    cfg = cube.config
    if cfg.chirps_per_frame < 2:
        raise DomainError("range-Doppler processing needs at least 2 chirps")
    n_fft_r, range_bin_m = _range_axis(cfg)
    lo, hi = 0, n_fft_r
    if gate_m is not None:
        lo, hi = _gate_rows(gate_m, range_bin_m, n_fft_r)
        lo, hi = max(lo - PRCA_MARGIN_ROWS, 0), min(hi + PRCA_MARGIN_ROWS, n_fft_r)
    n_fft_d, velocity_bin_m_s = _doppler_axis(cfg)
    fft_bins = _fft_bin(np.arange(n_fft_d), n_fft_d)  # the FFT bin of each map bin
    spectra = np.empty((cube.geometry.element_count, hi - lo, n_fft_d), dtype=complex)
    magnitudes = np.zeros((hi - lo, n_fft_d))
    first = 0
    for by_range in _range_rows(cube, lo, hi, n_fft_r):
        block = spectra[first : first + by_range.shape[0]]
        first += by_range.shape[0]
        # copied: the FFT of the view itself keeps its layout, and the gather below slows
        doppler = np.fft.fft(np.ascontiguousarray(by_range.transpose(0, 2, 1)), n=n_fft_d, axis=2)
        np.take(doppler, fft_bins, axis=2, out=block, mode="clip")  # in range; "clip": unbuffered
        magnitudes += np.abs(block).sum(axis=0)  # block by block: no whole-map temporary
    return RangeDopplerMap(magnitudes, range_bin_m, velocity_bin_m_s, spectra, lo, n_fft_r, cube)


def _cell_signal(cube: RadarCube, range_bin: int, doppler_bin: int) -> np.ndarray:
    """Per-antenna spectrum at one (range, shifted Doppler) cell, without BLAS.

    The range row is a non-BLAS `einsum` against a row gathered from the
    cached `_twiddles` table, summed in one fixed order, and the Doppler
    step is the FFT over the chirps, so the bytes do not depend on the
    BLAS kernel the CPU selects.
    """
    cfg = cube.config
    n_fft_r = _range_axis(cfg)[0]
    n_fft_d = _doppler_axis(cfg)[0]
    twiddles = _twiddles(n_fft_r)[np.arange(cfg.samples_per_chirp) * range_bin % n_fft_r]
    by_chirp = np.einsum("acn,n->ac", cube.samples, twiddles, optimize=False)
    return np.fft.fft(by_chirp, n=n_fft_d, axis=1)[:, _fft_bin(doppler_bin, n_fft_d)]


def steering_matrix(geometry: ArrayGeometry, wavelength_m: float, angle_grid_rad) -> np.ndarray:
    """Delay-and-sum weights, shape [antennas, angles]."""
    grid = np.asarray(angle_grid_rad, dtype=float)
    unit = np.stack([np.sin(grid), np.zeros_like(grid), np.cos(grid)])  # (3, G)
    proj = geometry.element_positions @ unit  # (N, G)
    return np.exp(-4j * np.pi * proj / wavelength_m)


@functools.lru_cache(maxsize=8)
def _default_weights(geometry: ArrayGeometry, wavelength_m: float) -> np.ndarray:
    """`steering_matrix` over `DEFAULT_ANGLE_GRID_RAD`, read-only, built once
    per array and wavelength."""
    weights = steering_matrix(geometry, wavelength_m, DEFAULT_ANGLE_GRID_RAD)
    weights.flags.writeable = False
    return weights


def range_angle(cube: RadarCube) -> RangeAngleMap:
    """Beamform the zero-Doppler range spectra of every row over `DEFAULT_ANGLE_GRID_RAD`.

    The full static map, which no chain path reads: the reference that
    `range_angle_at_doppler` is tested against.  The FFT is linear, so the
    chirps are averaged first, over each antenna's contiguous chirp rows,
    into a zero-padded [antenna, range] block that is range-FFT'd along
    its last axis.
    """
    cfg = cube.config
    n_fft_r, range_bin_m = _range_axis(cfg)
    chirp_mean = np.zeros((cube.geometry.element_count, n_fft_r), dtype=complex)
    np.mean(cube.samples, axis=1, out=chirp_mean[:, : cfg.samples_per_chirp])
    spectra = np.fft.fft(chirp_mean, axis=1)  # (N, R)
    weights = _default_weights(cube.geometry, cfg.wavelength_m)
    magnitudes = np.abs(spectra.T @ weights)
    return RangeAngleMap(magnitudes, range_bin_m, 0, n_fft_r)


def range_angle_at_doppler(rd_map: RangeDopplerMap, doppler_bin: int) -> RangeAngleMap:
    """Beamform the map's held rows at one (shifted) Doppler bin.

    |per_antenna[:, :, doppler_bin].T @ W| / chirps_per_frame over
    `DEFAULT_ANGLE_GRID_RAD`, holding the same rows as `rd_map`.  The
    zero-Doppler bin is the chirp sum, so for a static scene this is
    `range_angle`'s chirp-mean map over those rows, to rounding; a moving
    target keeps its whole echo at its own bin.
    """
    cube, cfg = rd_map.cube, rd_map.cube.config
    weights = _default_weights(cube.geometry, cfg.wavelength_m)
    beams = rd_map.per_antenna[:, :, doppler_bin].T @ weights
    return RangeAngleMap(
        np.abs(beams) / cfg.chirps_per_frame,
        rd_map.range_bin_m,
        rd_map.first_range_bin,
        rd_map.full_range_bins,
    )


def gate_peak(rd_map: RangeDopplerMap, gate_m) -> tuple[int, int]:
    """Range bin and shifted Doppler bin of the strongest cell in the gate's rows.

    `rd_map` must hold every row of the gate.  No threshold is applied:
    `detect_target` decides whether the cell is a target.
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
    return lo + int(r_off), int(d_bin)


def detect_target(rd_map: RangeDopplerMap, ra_map: RangeAngleMap, gate_m) -> TargetDetection:
    """The `gate_peak` cell, when it stands `THRESHOLD_DB` over the gate rows' median.

    Its angle is the peak of `ra_map`'s row at the cell's range, so
    `ra_map` must hold that row.  The gated signal is not read from a map
    but from the map's cube by `_cell_signal`, so it has the same bytes
    for a full and a gated map and on every BLAS kernel.  Raises
    NoTargetError when the cell does not clear the threshold.
    """
    r_bin, d_bin = gate_peak(rd_map, gate_m)
    lo, hi = _gate_rows(gate_m, rd_map.range_bin_m, rd_map.full_range_bins)
    gated = rd_map.magnitudes[lo - rd_map.first_range_bin : hi - rd_map.first_range_bin]
    peak = float(gated[r_bin - lo, d_bin])
    if peak <= 0.0 or peak < median(gated) * 10.0 ** (THRESHOLD_DB / 20.0):
        raise NoTargetError(
            f"no cell in gate [{float(gate_m[0])}, {float(gate_m[1])}] m above "
            f"{THRESHOLD_DB:.1f} dB over the median of the gate's range rows"
        )
    a_bin = int(np.argmax(ra_map.magnitudes[r_bin - ra_map.first_range_bin]))
    return TargetDetection(
        range_m=r_bin * rd_map.range_bin_m,
        velocity_m_s=float((rd_map.zero_doppler_bin - d_bin) * rd_map.velocity_bin_m_s),
        angle_rad=float(ra_map.angle_grid_rad[a_bin]),
        range_bin=r_bin,
        angle_bin=a_bin,
        doppler_bin=d_bin,
        gated_signal=_cell_signal(rd_map.cube, r_bin, d_bin),
    )


def detection_voxel(detection: TargetDetection) -> np.ndarray:
    """Cartesian center of the detected cell (azimuth plane, boresight +z)."""
    return detection.range_m * np.array(
        [np.sin(detection.angle_rad), 0.0, np.cos(detection.angle_rad)]
    )
