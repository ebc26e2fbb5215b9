import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from radmat import (
    ArrayGeometry,
    ChirpConfig,
    DomainError,
    NoTargetError,
    RadarCube,
    default_geometry,
    detect_target,
    range_angle,
    range_doppler,
    synthesize_frame,
)
from radmat import spectral
from radmat.calibration import estimate_noise_power
from radmat.cube_io import read_cube, write_cube
from radmat.pipeline import detect
from radmat.spectral import (
    DEFAULT_ANGLE_GRID_RAD,
    DFT_CROSSOVER_ROWS,
    PRCA_MARGIN_ROWS,
    RangeAngleMap,
    _default_weights,
    _dft_block,
    _twiddles,
    gate_peak,
    median,
    range_angle_at_doppler,
    steering_matrix,
)
from conftest import FIXTURE_NOISE_W, GATE_M, make_plate, padded_range_bin_m


def _half_power_beamwidth_rad(geometry, wavelength_m):
    """Numeric HPBW of the boresight beam under two-way steering phases."""
    grid = np.radians(np.linspace(-90.0, 90.0, 18001))
    pattern = np.abs(steering_matrix(geometry, wavelength_m, grid).sum(axis=0))
    center = int(np.argmax(pattern))
    below = np.flatnonzero(pattern < pattern.max() / np.sqrt(2.0))
    left, right = below[below < center], below[below > center]
    lo = left[-1] + 1 if left.size else 0
    hi = right[0] - 1 if right.size else grid.size - 1
    return float(grid[hi] - grid[lo])


def _single_target_cube(
    config, geometry, range_m, angle_rad=0.0, velocity=0.0, seed=3, noise_power_w=0.0
):
    position = range_m * np.array([np.sin(angle_rad), 0.0, np.cos(angle_rad)])
    target = make_plate(position, 1e6)
    target = type(target)(
        position_m=target.position_m,
        radial_velocity_m_s=velocity,
        dielectric_constant=1e6,
        facet_normal=np.array([0.0, 0.0, -1.0]),
        facet_area_m2=0.04,
    )
    return synthesize_frame([target], config, geometry, noise_power_w, seed)


SHAPES = [
    pytest.param((600, 64, 8), id="600x64x8"),
    pytest.param((256, 128, 12), id="256x128x12"),
    pytest.param((513, 100, 5), id="513x100x5-padded"),
    pytest.param((600, 2, 8), id="600x2x8-min-chirps"),
]


def _plate_cube(shape, seed=5):
    n_fast, n_chirp, n_ant = shape
    config = ChirpConfig(samples_per_chirp=n_fast, chirps_per_frame=n_chirp)
    geometry = default_geometry(config, element_count=n_ant)
    target = make_plate([0.05, 0.0, 0.3], 4.0)
    return synthesize_frame([target], config, geometry, FIXTURE_NOISE_W, seed)


def _assert_rows_match(gated, full, lo, hi):
    """The gated map's rows are the full map's rows lo..hi-1: bit for bit
    when both come from the padded FFT, within 1e-12 of the map peak when
    the gated rows come from the direct DFT."""
    if hi - lo >= DFT_CROSSOVER_ROWS:
        np.testing.assert_array_equal(gated.per_antenna, full.per_antenna[lo:hi])
        np.testing.assert_array_equal(gated.magnitudes, full.magnitudes[lo:hi])
    else:
        bound = 1e-12 * np.max(full.magnitudes)
        assert np.max(np.abs(gated.per_antenna - full.per_antenna[lo:hi])) <= bound
        assert np.max(np.abs(gated.magnitudes - full.magnitudes[lo:hi])) <= bound


def _whole_cube_range_doppler(samples):
    """Reference: FFT the whole cube along fast time, then chirps, then shift."""
    n_fft_r = 1 << (samples.shape[0] - 1).bit_length()
    n_fft_d = 1 << (samples.shape[1] - 1).bit_length()
    spectra = np.fft.fft(samples, n=n_fft_r, axis=0)
    spectra = np.fft.fft(spectra, n=n_fft_d, axis=1)
    spectra = np.fft.fftshift(spectra, axes=1)
    return spectra, np.abs(spectra).sum(axis=2)


class TestRangeDoppler:
    @pytest.mark.parametrize(
        "shape, via_file",
        [
            pytest.param((600, 64, 8), False, id="600x64x8"),
            pytest.param((256, 128, 12), False, id="256x128x12"),
            pytest.param((513, 100, 5), False, id="513x100x5-padded"),
            pytest.param((600, 2, 8), False, id="600x2x8-min-chirps"),
            pytest.param((600, 64, 8), True, id="600x64x8-rcub"),
        ],
    )
    def test_matches_whole_cube_fft(self, shape, via_file, tmp_path):
        n_fast, n_chirp, n_ant = shape
        config = ChirpConfig(samples_per_chirp=n_fast, chirps_per_frame=n_chirp)
        geometry = default_geometry(config, element_count=n_ant)
        target = make_plate([0.05, 0.0, 0.3], 4.0)
        cube = synthesize_frame([target], config, geometry, FIXTURE_NOISE_W, 5)
        if via_file:
            write_cube(tmp_path / "frame.rcub", cube)
            cube = read_cube(tmp_path / "frame.rcub")
            assert cube.samples.transpose(2, 1, 0).flags.c_contiguous  # antenna-major
        spectra, magnitudes = _whole_cube_range_doppler(cube.samples)
        rd = range_doppler(cube)
        assert rd.per_antenna.shape == spectra.shape
        np.testing.assert_array_equal(rd.per_antenna, spectra)
        # only the order of the sum over antennas differs: with 8 or more
        # antennas numpy's pairwise sum rounds differently, so single cells
        # and the median (600x2x8 here) can move by an ULP
        assert rd.magnitudes.shape == magnitudes.shape
        assert np.max(np.abs(rd.magnitudes - magnitudes)) <= 1e-14 * np.max(magnitudes)
        assert np.argmax(rd.magnitudes) == np.argmax(magnitudes)
        assert abs(np.median(rd.magnitudes) - np.median(magnitudes)) <= 1e-14 * np.median(
            magnitudes
        )
        noise = float(np.median(np.abs(spectra) ** 2)) / math.log(2.0)
        assert estimate_noise_power(cube) == noise

    def test_zero_cube_zero_map(self, config, geometry):
        cube = synthesize_frame([], config, geometry, 0.0, 1)
        rd = range_doppler(cube)
        assert np.all(rd.magnitudes == 0)

    def test_single_target_peak_location(self, config, geometry):
        cube = _single_target_cube(config, geometry, 0.25)
        rd = range_doppler(cube)
        r_bin, d_bin = np.unravel_index(np.argmax(rd.magnitudes), rd.magnitudes.shape)
        assert r_bin == round(0.25 / rd.range_bin_m)
        assert d_bin == rd.zero_doppler_bin

    def test_two_separated_targets_two_maxima(self, config, geometry):
        cube = synthesize_frame(
            [make_plate([0.0, 0.0, 0.25], 1e6), make_plate([0.0, 0.0, 0.8], 1e6)],
            config,
            geometry,
            0.0,
            1,
        )
        rd = range_doppler(cube)
        profile = rd.magnitudes[:, rd.zero_doppler_bin]
        for expected in (round(0.25 / rd.range_bin_m), round(0.8 / rd.range_bin_m)):
            window = profile[expected - 2 : expected + 3]
            assert window.max() == profile[expected]
            # local maximum against neighbours outside the window
            assert profile[expected] > profile[expected - 3]
            assert profile[expected] > profile[expected + 3]

    def test_requires_two_chirps(self, config, geometry):
        from dataclasses import replace

        tiny = replace(config, chirps_per_frame=1)
        cube = RadarCube(
            np.zeros((config.samples_per_chirp, 1, geometry.element_count), complex),
            tiny,
            geometry,
        )
        with pytest.raises(DomainError):
            range_doppler(cube)

    def test_energy_scales_quadratically_with_gain(self, config, geometry):
        cube = _single_target_cube(config, geometry, 0.3)
        scaled = RadarCube(cube.samples * 3.0, config, geometry)
        e1 = np.sum(range_doppler(cube).magnitudes ** 2)
        e2 = np.sum(range_doppler(scaled).magnitudes ** 2)
        assert e2 == pytest.approx(9.0 * e1, rel=1e-9)

    def test_velocity_recovery(self, config, geometry):
        cube = _single_target_cube(config, geometry, 0.3, velocity=2.0)
        rd = range_doppler(cube)
        ra = range_angle(cube)
        det = detect_target(rd, ra, GATE_M)
        assert det.velocity_m_s == pytest.approx(2.0, abs=rd.velocity_bin_m_s)


class TestRangeAngle:
    def test_boresight_target_peaks_at_zero(self, config, geometry):
        cube = _single_target_cube(config, geometry, 0.25, angle_rad=0.0)
        ra = range_angle(cube)
        r_bin = round(0.25 / ra.range_bin_m)
        peak_angle = ra.angle_grid_rad[np.argmax(ra.magnitudes[r_bin])]
        assert abs(peak_angle) <= np.radians(0.5)

    def test_off_boresight_target_within_one_bin(self, config, geometry):
        angle = np.radians(15.0)
        cube = _single_target_cube(config, geometry, 0.25, angle_rad=angle)
        ra = range_angle(cube)
        r_bin = round(0.25 / ra.range_bin_m)
        peak_angle = ra.angle_grid_rad[np.argmax(ra.magnitudes[r_bin])]
        grid_step = ra.angle_grid_rad[1] - ra.angle_grid_rad[0]
        assert abs(peak_angle - angle) <= grid_step

    def test_single_antenna_rejected(self):
        with pytest.raises(DomainError):
            ArrayGeometry(1, 0.00125)

    def test_every_map_is_over_the_one_grid(self, config, geometry):
        cube = _single_target_cube(config, geometry, 0.25)
        held = range_angle_at_doppler(range_doppler(cube, GATE_M), 0)
        for ra in (range_angle(cube), held):
            assert ra.angle_grid_rad is DEFAULT_ANGLE_GRID_RAD
        fields = [f.name for f in dataclasses.fields(RangeAngleMap)]
        assert fields == ["magnitudes", "range_bin_m", "first_range_bin", "full_range_bins"]

    @pytest.mark.parametrize("shape", [(3, 180), (3, 182), (3, 1), (181,), (2, 3, 181)])
    def test_map_without_a_column_per_grid_angle_rejected(self, shape):
        with pytest.raises(DomainError, match="one column per grid angle"):
            RangeAngleMap(
                np.ones(shape), range_bin_m=0.02, first_range_bin=0, full_range_bins=shape[0]
            )

    @pytest.mark.parametrize("scene", ["plate", "empty"])
    def test_matches_chirp_averaged_full_cube_fft(self, scene, frame_factory, fixture_position):
        # reference: the range FFT of every chirp, averaged afterwards
        targets = [make_plate(fixture_position, 4.0)] if scene == "plate" else []
        cube = frame_factory(targets, seed=21)
        ra = range_angle(cube)
        n_fft = 1 << (cube.config.samples_per_chirp - 1).bit_length()
        spectra = np.fft.fft(cube.samples, n_fft, axis=0).mean(axis=1)
        weights = steering_matrix(cube.geometry, cube.config.wavelength_m, ra.angle_grid_rad)
        reference = np.abs(spectra @ weights)
        assert ra.magnitudes.shape == reference.shape
        assert np.max(np.abs(ra.magnitudes - reference)) <= 1e-12 * np.max(reference)
        np.testing.assert_array_equal(
            np.argmax(ra.magnitudes, axis=1), np.argmax(reference, axis=1)
        )

    @pytest.mark.parametrize(
        "shape, via_file",
        [
            pytest.param((600, 64, 8), False, id="600x64x8"),
            pytest.param((256, 128, 12), False, id="256x128x12"),
            pytest.param((513, 100, 5), False, id="513x100x5-padded"),
            pytest.param((600, 64, 8), True, id="600x64x8-rcub"),
        ],
    )
    def test_bit_identical_to_fast_time_major_formula(self, shape, via_file, tmp_path):
        n_fast, n_chirp, n_ant = shape
        config = ChirpConfig(samples_per_chirp=n_fast, chirps_per_frame=n_chirp)
        geometry = default_geometry(config, element_count=n_ant)
        cube = synthesize_frame([make_plate([0.05, 0.0, 0.3], 4.0)], config, geometry, 1e-2, 9)
        if via_file:
            write_cube(tmp_path / "frame.rcub", cube)
            cube = read_cube(tmp_path / "frame.rcub")
        ra = range_angle(cube)
        # reference: the chirp mean of [fast, chirp, antenna] C-ordered samples,
        # range-FFT'd along axis 0 with n= padding
        samples = np.ascontiguousarray(cube.samples)
        n_fft = 1 << (n_fast - 1).bit_length()
        weights = steering_matrix(cube.geometry, cube.config.wavelength_m, ra.angle_grid_rad)
        reference = np.abs(np.fft.fft(samples.mean(axis=1), n_fft, axis=0) @ weights)
        np.testing.assert_array_equal(ra.magnitudes, reference)

    def test_true_angle_beats_angles_two_hpbw_away(self, config, geometry):
        hpbw = _half_power_beamwidth_rad(geometry, config.wavelength_m)
        cube = _single_target_cube(config, geometry, 0.25, angle_rad=0.0)
        ra = range_angle(cube)
        r_bin = round(0.25 / ra.range_bin_m)
        row = ra.magnitudes[r_bin]
        at_true = row[np.argmin(np.abs(ra.angle_grid_rad))]
        far = np.abs(ra.angle_grid_rad) >= 2.0 * hpbw
        assert far.any()
        assert at_true >= row[far].max()


class TestRangeAngleAtDoppler:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_zero_doppler_is_the_chirp_mean_map(self, shape):
        cube = _plate_cube(shape)
        rd = range_doppler(cube, GATE_M)
        held = range_angle_at_doppler(rd, rd.zero_doppler_bin)
        full = range_angle(cube)
        lo, rows = rd.first_range_bin, rd.magnitudes.shape[0]
        assert (held.first_range_bin, held.full_range_bins) == (lo, full.magnitudes.shape[0])
        rows_of_full = full.magnitudes[lo : lo + rows]
        assert held.magnitudes.shape == rows_of_full.shape
        assert np.max(np.abs(held.magnitudes - rows_of_full)) <= 1e-12 * np.max(rows_of_full)
        np.testing.assert_array_equal(
            np.argmax(held.magnitudes, axis=1), np.argmax(rows_of_full, axis=1)
        )

    def test_document_names_the_held_rows(self, config, geometry):
        cube = _single_target_cube(config, geometry, 0.3)
        rd = range_doppler(cube, GATE_M)
        doc = range_angle_at_doppler(rd, rd.zero_doppler_bin).to_document()
        assert (doc["first_range_bin"], doc["range_bins"], doc["full_range_bins"]) == (
            rd.first_range_bin, rd.magnitudes.shape[0], rd.full_range_bins
        )
        full_rd = range_doppler(cube)
        assert "first_range_bin" not in range_angle_at_doppler(full_rd, 0).to_document()
        assert "first_range_bin" not in range_angle(cube).to_document()

    def test_mover_read_at_its_doppler_bin(self, config, geometry):
        # at its own bin a mover keeps its whole echo; the chirp mean
        # all but cancels one that moves a whole Doppler bin
        rd = range_doppler(
            _single_target_cube(config, geometry, 0.3, velocity=0.65, seed=7), GATE_M
        )
        static = range_doppler(_single_target_cube(config, geometry, 0.3, seed=7), GATE_M)
        r_off, d_bin = np.unravel_index(int(np.argmax(rd.magnitudes)), rd.magnitudes.shape)
        assert d_bin != rd.zero_doppler_bin
        moving = range_angle_at_doppler(rd, int(d_bin)).magnitudes[r_off].max()
        still = range_angle_at_doppler(static, static.zero_doppler_bin).magnitudes[r_off].max()
        assert moving == pytest.approx(still, rel=0.05)
        assert range_angle_at_doppler(rd, rd.zero_doppler_bin).magnitudes[r_off].max() < 0.1 * still


class TestDetectTarget:
    def test_empty_scene_with_noise_no_target(self, config, geometry):
        cube = synthesize_frame([], config, geometry, 1e-6, 5)
        with pytest.raises(NoTargetError):
            detect_target(range_doppler(cube), range_angle(cube), GATE_M)

    def test_empty_scene_zero_noise_no_target(self, config, geometry):
        cube = synthesize_frame([], config, geometry, 0.0, 5)
        with pytest.raises(NoTargetError):
            detect_target(range_doppler(cube), range_angle(cube), GATE_M)

    def test_gate_peak_applies_no_threshold(self, config, geometry):
        # a noise-only gate still has a strongest cell; only detect_target tests it
        rd = range_doppler(synthesize_frame([], config, geometry, 1e-6, 5), GATE_M)
        r_bin, d_bin = gate_peak(rd, GATE_M)
        gated = rd.magnitudes[PRCA_MARGIN_ROWS:-PRCA_MARGIN_ROWS]
        assert rd.magnitudes[r_bin - rd.first_range_bin, d_bin] == gated.max()
        with pytest.raises(NoTargetError):
            detect_target(rd, range_angle_at_doppler(rd, d_bin), GATE_M)

    def test_oracle_target_recovered_within_one_bin(self, config, geometry):
        cube = _single_target_cube(config, geometry, 0.25)
        det = detect_target(range_doppler(cube), range_angle(cube), GATE_M)
        assert abs(det.range_m - 0.25) <= 3.0e8 / (2.0 * config.bandwidth_hz)
        assert det.velocity_m_s == 0.0

    def test_target_outside_gate_not_found(self, config, geometry):
        # realistic noise floor: the out-of-gate target's range sidelobes
        # must stay below the threshold, while the target itself remains
        # detectable when the gate covers it
        position = 0.8 * np.array([0.0, 0.0, 1.0])
        cube = synthesize_frame([make_plate(position, 1e6)], config, geometry, 10.0, 9)
        rd, ra = range_doppler(cube), range_angle(cube)
        with pytest.raises(NoTargetError):
            detect_target(rd, ra, (0.1, 0.5))
        covered = detect_target(rd, ra, (0.1, 1.0))
        assert covered.range_m == pytest.approx(0.8, abs=3.0e8 / (2 * config.bandwidth_hz))

    def test_gate_outside_extent_rejected(self, config, geometry):
        cube = _single_target_cube(config, geometry, 0.25)
        rd, ra = range_doppler(cube), range_angle(cube)
        with pytest.raises(DomainError):
            detect_target(rd, ra, (0.1, 1e6))

    def test_detection_shift_consistent(self, config, geometry):
        bin_m = padded_range_bin_m(config)
        base_bin = 12
        cube = _single_target_cube(config, geometry, base_bin * bin_m)
        det0 = detect_target(range_doppler(cube), range_angle(cube), GATE_M)
        assert det0.range_bin == base_bin
        for k in (3, 7, 11):
            shifted = _single_target_cube(config, geometry, (base_bin + k) * bin_m)
            det = detect_target(range_doppler(shifted), range_angle(shifted), GATE_M)
            assert det.range_bin - det0.range_bin == k

    def test_gated_signal_has_one_value_per_antenna(self, config, geometry):
        cube = _single_target_cube(config, geometry, 0.25)
        det = detect_target(range_doppler(cube), range_angle(cube), GATE_M)
        assert det.gated_signal.shape == (geometry.element_count,)
        assert np.linalg.norm(det.gated_signal) > 0


class TestGatedMap:
    """The gated map holds the full map's gate rows and a margin of
    `PRCA_MARGIN_ROWS` beyond each edge, and detection on it matches
    detection on the full maps."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rows_equal_full_map_rows(self, shape):
        cube = _plate_cube(shape)
        full = range_doppler(cube)
        bin_m = full.range_bin_m
        lo = math.ceil(GATE_M[0] / bin_m) - PRCA_MARGIN_ROWS
        hi = math.floor(GATE_M[1] / bin_m) + 1 + PRCA_MARGIN_ROWS
        gated = range_doppler(cube, GATE_M)
        assert (gated.first_range_bin, gated.full_range_bins) == (lo, full.magnitudes.shape[0])
        assert (full.first_range_bin, full.full_range_bins) == (0, full.magnitudes.shape[0])
        _assert_rows_match(gated, full, lo, hi)
        doc = gated.to_document()
        assert (doc["first_range_bin"], doc["range_bins"], doc["full_range_bins"]) == (
            lo, hi - lo, full.magnitudes.shape[0]
        )
        assert "first_range_bin" not in full.to_document()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize(
        "rows",
        [
            1 + 2 * PRCA_MARGIN_ROWS,
            DFT_CROSSOVER_ROWS - 1,
            DFT_CROSSOVER_ROWS,
            DFT_CROSSOVER_ROWS + 1,
            None,
        ],
        ids=["1", "crossover-1", "crossover", "crossover+1", "full"],
    )
    def test_dft_and_fft_rows_agree_across_crossover(self, shape, rows):
        # `rows` held rows ("1": a one-row gate and its margins)
        cube = _plate_cube(shape)
        full = range_doppler(cube)
        n, bin_m = full.full_range_bins, full.range_bin_m
        rows = n if rows is None else rows
        # a window of `rows` held rows around the target; the gate is the
        # window less the margins that the map's edges do not clamp, its
        # edges half a bin out
        peak_row = int(np.argmax(full.magnitudes.max(axis=1)))
        lo = min(max(peak_row - rows // 2, 0), n - rows)
        hi = lo + rows
        gate_lo = lo + PRCA_MARGIN_ROWS if lo > 0 else 0
        gate_hi = hi - PRCA_MARGIN_ROWS if hi < n else n
        gate = (
            max(gate_lo - 0.5, 0.0) * bin_m,
            (gate_hi - 0.5) * bin_m if gate_hi < n else n * bin_m,
        )
        gated = range_doppler(cube, gate)
        assert (gated.first_range_bin, gated.magnitudes.shape[0]) == (lo, rows)
        _assert_rows_match(gated, full, lo, hi)

    @pytest.mark.parametrize(
        "velocity, gate_bins, rows",
        [
            pytest.param(0.25, (4.5, 27.0), (4, 25), id="moving-0.25"),
            pytest.param(1.0, (4.5, 27.0), (4, 25), id="moving-1.0"),
            pytest.param(0.0, (15.6, 16.4), (15, 3), id="one-row-gate"),
            pytest.param(0.0, (4.5, 1024.0), (4, 1020), id="top-edge-at-extent"),
        ],
    )
    def test_detect_matches_full_map_detection(self, config, geometry, velocity, gate_bins, rows):
        # gate edges in padded range bins; the map has 1024 of them, and the
        # held rows are the gate's and one margin row each side, but not
        # past the map's last row
        bin_m = padded_range_bin_m(config)
        gate = (gate_bins[0] * bin_m, gate_bins[1] * bin_m)
        cube = _single_target_cube(
            config, geometry, 16 * bin_m, velocity=velocity, seed=7, noise_power_w=FIXTURE_NOISE_W
        )
        rd, _, det = detect(cube, gate)
        assert (rd.first_range_bin, rd.magnitudes.shape[0], rd.full_range_bins) == (*rows, 1024)
        full = detect_target(range_doppler(cube), range_angle(cube), gate)
        assert det.range_bin == full.range_bin == 16
        assert (det.doppler_bin, det.angle_bin) == (full.doppler_bin, full.angle_bin)
        assert (det.range_m, det.velocity_m_s, det.angle_rad) == (
            full.range_m, full.velocity_m_s, full.angle_rad
        )
        np.testing.assert_array_equal(det.gated_signal, full.gated_signal)
        if velocity:
            assert det.velocity_m_s == pytest.approx(velocity, abs=rd.velocity_bin_m_s)

    @pytest.mark.parametrize("velocity", [0.0, 0.65, -1.0])
    def test_gated_signal_is_the_full_map_cell(self, config, geometry, velocity):
        # read from the cube without BLAS, it is the map's cell to rounding
        cube = _single_target_cube(
            config, geometry, 0.3, velocity=velocity, noise_power_w=FIXTURE_NOISE_W
        )
        full = range_doppler(cube)
        det = detect_target(full, range_angle(cube), GATE_M)
        assert (det.doppler_bin == full.zero_doppler_bin) == (velocity == 0.0)
        cell = full.per_antenna[det.range_bin, det.doppler_bin]
        assert np.max(np.abs(det.gated_signal - cell)) <= 1e-12 * np.max(np.abs(cell))

    def test_out_of_gate_plate(self, config, geometry):
        position = 0.8 * np.array([0.0, 0.0, 1.0])
        cube = synthesize_frame([make_plate(position, 1e6)], config, geometry, 10.0, 9)
        with pytest.raises(NoTargetError):
            detect(cube, (0.1, 0.5))
        with pytest.raises(NoTargetError):
            detect_target(range_doppler(cube), range_angle(cube), (0.1, 0.5))
        _, _, det = detect(cube, (0.1, 1.0))
        full = detect_target(range_doppler(cube), range_angle(cube), (0.1, 1.0))
        assert (det.range_bin, det.doppler_bin, det.angle_bin) == (
            full.range_bin, full.doppler_bin, full.angle_bin
        )
        np.testing.assert_array_equal(det.gated_signal, full.gated_signal)

    def test_gate_outside_extent_rejected(self, config, geometry):
        cube = _single_target_cube(config, geometry, 0.25)
        rd, ra = range_doppler(cube, GATE_M), range_angle(cube)
        with pytest.raises(DomainError, match="extent"):
            detect_target(rd, ra, (0.1, 1e6))
        with pytest.raises(DomainError, match="extent"):
            detect(cube, (0.1, 1e6))
        with pytest.raises(DomainError, match="held"):
            detect_target(rd, ra, (0.7, 0.9))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        noise_power_w=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_noise_only_cube_has_no_target(self, frame_factory, seed, noise_power_w):
        with pytest.raises(NoTargetError):
            detect(frame_factory([], seed=seed, noise_power_w=noise_power_w), GATE_M)


SHAPE_CONSTANTS = (_twiddles, _dft_block, _default_weights)


def _clear_shape_constants():
    for cache in SHAPE_CONSTANTS:
        cache.cache_clear()


def _builds():
    return [cache.cache_info().misses for cache in SHAPE_CONSTANTS]


def _gated_frame(cube):
    """Every array one gated frame computes: held map, beamformed rows, cell."""
    rd, ra, det = detect(cube, GATE_M)
    return rd.magnitudes, rd.per_antenna, ra.magnitudes, det.gated_signal


def _assert_frame_equal(cube, expected):
    for got, want in zip(_gated_frame(cube), expected, strict=True):
        np.testing.assert_array_equal(got, want)


class TestShapeConstants:
    """The twiddle table, a gate's DFT block and the steering weights are
    built once per frame shape and handed out read-only."""

    def test_second_frame_of_a_shape_builds_nothing(self, monkeypatch):
        _clear_shape_constants()
        _gated_frame(_plate_cube((600, 64, 8)))
        built = _builds()
        assert all(built), built
        # building a twiddle table or steering weights again would now raise
        monkeypatch.setattr(spectral, "math", None)
        monkeypatch.setattr(spectral, "steering_matrix", None)
        _gated_frame(_plate_cube((600, 64, 8), seed=6))
        assert _builds() == built

    def test_constants_are_read_only(self):
        cube = _plate_cube((600, 64, 8))
        constants = [
            _twiddles(1024),
            _dft_block(600, 1024, 4, 25),
            _default_weights(cube.geometry, cube.config.wavelength_m),
            DEFAULT_ANGLE_GRID_RAD,
        ]
        for constant in constants:
            with pytest.raises(ValueError, match="read-only"):
                constant[0] = 0

    @pytest.mark.parametrize("shape", SHAPES)
    def test_constants_equal_a_fresh_build(self, shape):
        cube = _plate_cube(shape)
        n_fast, wavelength_m = cube.config.samples_per_chirp, cube.config.wavelength_m
        n_fft_r = 1 << (n_fast - 1).bit_length()
        index = np.outer(np.arange(n_fast), np.arange(3, 30)) % n_fft_r
        np.testing.assert_array_equal(
            _dft_block(n_fast, n_fft_r, 3, 30), _twiddles.__wrapped__(n_fft_r)[index]
        )
        np.testing.assert_array_equal(
            _default_weights(cube.geometry, wavelength_m),
            steering_matrix(cube.geometry, wavelength_m, DEFAULT_ANGLE_GRID_RAD),
        )

    @pytest.mark.parametrize("shape", SHAPES)
    def test_cleared_caches_give_the_same_bytes(self, shape):
        cube = _plate_cube(shape)
        _gated_frame(cube)
        cached = _gated_frame(cube)
        _clear_shape_constants()
        _assert_frame_equal(cube, cached)

    def test_two_shapes_do_not_interfere(self):
        cubes = [_plate_cube((600, 64, 8)), _plate_cube((256, 128, 12))]
        alone = []
        for cube in cubes:
            _clear_shape_constants()
            alone.append(_gated_frame(cube))
        _clear_shape_constants()
        for cube, expected in zip(cubes, alone):
            _assert_frame_equal(cube, expected)
        built = _builds()
        for cube, expected in zip(cubes, alone):
            _assert_frame_equal(cube, expected)
        assert _builds() == built  # both shapes stay cached


# values that collide under a partition: both zeros, the smallest
# subnormals, ties and the infinities
MEDIAN_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1.0, -1.0, math.inf, -math.inf)
NANS = (math.nan, -math.nan, np.frombuffer(bytes.fromhex("0100000000f8ff7f"))[0])


def _median_inputs(elements):
    shapes = st.one_of(
        st.tuples(st.integers(1, 64)), st.tuples(st.integers(1, 8), st.integers(1, 8))
    )
    return hnp.arrays(np.float64, shapes, elements=elements)


def _median_bytes(fn, values) -> bytes:
    # -inf and inf as the middle pair average to NaN in both, with a warning
    with np.errstate(all="ignore"):
        return np.float64(fn(values)).tobytes()


class TestMedian:
    """`spectral.median` is `np.median` of the whole array, to the byte."""

    @settings(max_examples=300)
    @given(
        _median_inputs(
            st.one_of(st.sampled_from(MEDIAN_EDGES), st.floats(allow_nan=False, width=64))
        )
    )
    def test_same_bytes_as_numpy(self, values):
        assert _median_bytes(median, values) == _median_bytes(np.median, values)

    @settings(max_examples=100)
    @given(
        _median_inputs(st.one_of(st.sampled_from(MEDIAN_EDGES), st.floats(width=64))),
        st.data(),
    )
    def test_any_nan_gives_nan(self, values, data):
        index = data.draw(st.tuples(*(st.integers(0, n - 1) for n in values.shape)))
        values[index] = data.draw(st.sampled_from(NANS))
        assert math.isnan(median(values))
        assert _median_bytes(median, values) == _median_bytes(np.median, values)

    def test_even_size_averages_the_middle_pair(self):
        assert median(np.array([[4.0, 1.0], [3.0, 2.0]])) == 2.5
        assert median(np.array([3.0, 1.0, 2.0])) == 2.0
