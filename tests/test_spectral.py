import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from radmat.calibration import estimate_noise_power
from radmat.cube_io import read_cube, write_cube
from radmat.pipeline import detect
from radmat.spectral import steering_matrix
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
            ArrayGeometry(np.array([[0.0, 0.0, 0.0]]))

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


class TestDetectTarget:
    def test_empty_scene_with_noise_no_target(self, config, geometry):
        cube = synthesize_frame([], config, geometry, 1e-6, 5)
        with pytest.raises(NoTargetError):
            detect_target(range_doppler(cube), range_angle(cube), GATE_M)

    def test_empty_scene_zero_noise_no_target(self, config, geometry):
        cube = synthesize_frame([], config, geometry, 0.0, 5)
        with pytest.raises(NoTargetError):
            detect_target(range_doppler(cube), range_angle(cube), GATE_M)

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
    """The gated map holds the full map's gate rows, and detection on it
    matches detection on the full maps."""

    @pytest.mark.parametrize(
        "shape",
        [
            pytest.param((600, 64, 8), id="600x64x8"),
            pytest.param((256, 128, 12), id="256x128x12"),
            pytest.param((513, 100, 5), id="513x100x5-padded"),
            pytest.param((600, 2, 8), id="600x2x8-min-chirps"),
        ],
    )
    def test_rows_equal_full_map_rows(self, shape):
        n_fast, n_chirp, n_ant = shape
        config = ChirpConfig(samples_per_chirp=n_fast, chirps_per_frame=n_chirp)
        geometry = default_geometry(config, element_count=n_ant)
        target = make_plate([0.05, 0.0, 0.3], 4.0)
        cube = synthesize_frame([target], config, geometry, FIXTURE_NOISE_W, 5)
        full = range_doppler(cube)
        bin_m = full.range_bin_m
        lo, hi = math.ceil(GATE_M[0] / bin_m), math.floor(GATE_M[1] / bin_m) + 1
        gated = range_doppler(cube, GATE_M)
        assert (gated.first_range_bin, gated.full_range_bins) == (lo, full.magnitudes.shape[0])
        assert (full.first_range_bin, full.full_range_bins) == (0, full.magnitudes.shape[0])
        np.testing.assert_array_equal(gated.per_antenna, full.per_antenna[lo:hi])
        np.testing.assert_array_equal(gated.magnitudes, full.magnitudes[lo:hi])
        doc = gated.to_document()
        assert (doc["first_range_bin"], doc["range_bins"], doc["full_range_bins"]) == (
            lo, hi - lo, full.magnitudes.shape[0]
        )
        assert "first_range_bin" not in full.to_document()

    @pytest.mark.parametrize(
        "velocity, gate_bins, rows",
        [
            pytest.param(0.25, (4.5, 27.0), (5, 23), id="moving-0.25"),
            pytest.param(1.0, (4.5, 27.0), (5, 23), id="moving-1.0"),
            pytest.param(0.0, (15.6, 16.4), (16, 1), id="one-row-gate"),
            pytest.param(0.0, (4.5, 1024.0), (5, 1019), id="top-edge-at-extent"),
        ],
    )
    def test_detect_matches_full_map_detection(self, config, geometry, velocity, gate_bins, rows):
        # gate edges in padded range bins; the map has 1024 of them
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
