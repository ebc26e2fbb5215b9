import math

import numpy as np
import pytest

from radmat import (
    CalibrationError,
    ChirpConfig,
    DomainError,
    calibrate_plate,
    calibrate_sphere,
    default_geometry,
    rcs_from_snr,
    synthesize_frame,
)
from radmat.calibration import CalibrationProfile, estimate_noise_power, measure
from radmat.docio import canonical_bytes
from radmat.pipeline import calibrate_from_cubes, detect, extract_from_cube
from radmat.spectral import detect_target, range_angle, range_doppler
from conftest import (
    FIXTURE_NOISE_W,
    GATE_M,
    METAL_EPSILON,
    SPHERE_DIAMETER_M,
    make_plate,
    make_sphere,
    padded_range_bin_m,
)


def _sphere_detection(config, geometry, position, frame_factory, seed=41, **kwargs):
    cube = frame_factory([make_sphere(position)], seed=seed, **kwargs)
    return detect_target(range_doppler(cube), range_angle(cube), GATE_M)


class TestCalibrateSphere:
    def test_sphere_rcs_is_cross_section(self, profile):
        # sigma_c = pi * (d/2)^2 for d = 63 mm, about 0.0031 m^2
        expected = math.pi * (SPHERE_DIAMETER_M / 2.0) ** 2
        assert profile.sphere_rcs_m2 == expected
        assert profile.sphere_rcs_m2 == pytest.approx(0.0031, rel=0.01)

    def test_small_sphere_not_optical_region(self, config, geometry, fixture_position, frame_factory, noise_power):
        det = _sphere_detection(config, geometry, fixture_position, frame_factory)
        with pytest.raises(CalibrationError, match="optical"):
            calibrate_sphere(det, geometry, config, 0.010, noise_power)

    def test_zero_phase_error_gives_unit_phasors(
        self, config, geometry, fixture_position, frame_factory, noise_power
    ):
        det = _sphere_detection(
            config, geometry, fixture_position, frame_factory, noise_power_w=0.0
        )
        prof = calibrate_sphere(det, geometry, config, SPHERE_DIAMETER_M, noise_power)
        assert np.allclose(prof.phase_phasors, 1.0, atol=1e-9)

    def test_phasors_align_sphere_signal(
        self, config, geometry, fixture_position, frame_factory, noise_power
    ):
        from radmat.signal_model import synthesize_frame

        offsets = np.linspace(0.3, -1.2, geometry.element_count)
        cube = synthesize_frame(
            [make_sphere(fixture_position)], config, geometry, 0.0, 43,
            phase_offsets_rad=offsets,
        )
        det = detect_target(range_doppler(cube), range_angle(cube), GATE_M)
        prof = calibrate_sphere(det, geometry, config, SPHERE_DIAMETER_M, noise_power)
        corrected = det.gated_signal * prof.phase_phasors
        voxel = det.range_m * np.array([np.sin(det.angle_rad), 0.0, np.cos(det.angle_rad)])
        dists = np.linalg.norm(geometry.element_positions - voxel, axis=1)
        residual = np.angle(corrected * np.exp(4j * np.pi * dists / config.wavelength_m))
        assert np.max(np.abs(residual - residual[0])) < 1e-6

    def test_noise_power_must_be_positive(self, config, geometry, fixture_position, frame_factory):
        det = _sphere_detection(config, geometry, fixture_position, frame_factory)
        with pytest.raises(CalibrationError):
            calibrate_sphere(det, geometry, config, SPHERE_DIAMETER_M, 0.0)


class TestRcsFromSnr:
    def test_sphere_round_trip_exact(self, profile):
        sigma = rcs_from_snr(profile.sphere_snr_linear, profile.sphere_range_m, profile)
        assert sigma == profile.sphere_rcs_m2

    def test_linear_in_snr(self, profile):
        sigma = rcs_from_snr(2.0 * profile.sphere_snr_linear, profile.sphere_range_m, profile)
        assert sigma == pytest.approx(2.0 * profile.sphere_rcs_m2, rel=1e-12)

    def test_quartic_in_range(self, profile):
        sigma = rcs_from_snr(profile.sphere_snr_linear, 2.0 * profile.sphere_range_m, profile)
        assert sigma == pytest.approx(16.0 * profile.sphere_rcs_m2, rel=1e-12)

    def test_homogeneity_degrees(self, profile):
        base = rcs_from_snr(profile.sphere_snr_linear, profile.sphere_range_m, profile)
        for a, b in ((3.0, 1.0), (1.0, 1.5), (2.5, 0.7)):
            scaled = rcs_from_snr(
                a * profile.sphere_snr_linear, b * profile.sphere_range_m, profile
            )
            assert scaled == pytest.approx(a * b**4 * base, rel=1e-12)

    def test_invalid_inputs(self, profile):
        with pytest.raises(DomainError):
            rcs_from_snr(0.0, 0.3, profile)
        with pytest.raises(DomainError):
            rcs_from_snr(10.0, -1.0, profile)


class TestCalibratePlate:
    def test_metal_plate_reference_positive(self, profile):
        assert profile.is_complete
        assert profile.metal_plate_rho > 0

    def test_missing_sphere_calibration(self, config, geometry, fixture_position, frame_factory):
        cube = frame_factory([make_plate(fixture_position, 1e6)], seed=44)
        ra = range_angle(cube)
        det = detect_target(range_doppler(cube), ra, GATE_M)
        with pytest.raises(CalibrationError, match="sphere"):
            calibrate_plate(det, ra, geometry, config, None)

    def test_repeat_overwrites_deterministically(
        self, config, geometry, fixture_position, frame_factory, profile
    ):
        cube = frame_factory([make_plate(fixture_position, 1e6)], seed=12)
        ra = range_angle(cube)
        det = detect_target(range_doppler(cube), ra, GATE_M)
        once = calibrate_plate(det, ra, geometry, config, profile)
        twice = calibrate_plate(det, ra, geometry, config, once)
        assert once.metal_plate_rho == twice.metal_plate_rho


# (samples per chirp, chirps per frame, antennas, range bin of the references)
CALIBRATED_SHAPES = [(600, 64, 8, 16), (256, 128, 12, 4)]


class TestReferencesReadAsThemselves:
    """The sphere and the plate go through the target's measurement step,
    so each reference measured as a target reads exactly its own value."""

    @pytest.mark.parametrize("shape", CALIBRATED_SHAPES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sphere_and_plate(self, shape, seed):
        samples, chirps, antennas, reference_bin = shape
        config = ChirpConfig(samples_per_chirp=samples, chirps_per_frame=chirps)
        geometry = default_geometry(config, antennas)
        position = [0.0, 0.0, reference_bin * padded_range_bin_m(config)]

        def frame(targets, offset):
            return synthesize_frame(targets, config, geometry, FIXTURE_NOISE_W, 10 * seed + offset)

        sphere_cube = frame([make_sphere(position)], 1)
        plate_cube = frame([make_plate(position, METAL_EPSILON)], 2)
        noise = estimate_noise_power(frame([], 3))
        profile = calibrate_from_cubes(sphere_cube, plate_cube, SPHERE_DIAMETER_M, noise, GATE_M)

        _, ra, det = detect(sphere_cube, GATE_M)
        sphere = measure(det, ra, geometry, config, profile)
        assert sphere.synthesis.enhanced_snr_linear == profile.sphere_snr_linear
        assert sphere.rcs_m2 == profile.sphere_rcs_m2
        plate = extract_from_cube(plate_cube, profile, GATE_M).features
        assert plate.power_reflection == profile.metal_plate_rho


class TestProfilePersistence:
    def test_document_round_trip_bit_exact(self, profile):
        doc = profile.to_document()
        reloaded = CalibrationProfile.from_document(doc)
        assert canonical_bytes(reloaded.to_document()) == canonical_bytes(doc)

    def test_invalid_document_rejected(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile.from_document({"kind": "calibration_profile"})

    def test_phasor_magnitude_validated(self, profile):
        doc = profile.to_document()
        doc["phase_phasors_re_im"][0] = [2.0, 0.0]
        with pytest.raises((CalibrationError, DomainError)):
            CalibrationProfile.from_document(doc)


class TestNoiseEstimate:
    def test_matches_injected_noise_at_gated_level(self, config, geometry, frame_factory):
        from radmat.signal_model import synthesize_frame

        injected = 1e-4
        cube = synthesize_frame([], config, geometry, injected, 7)
        estimate = estimate_noise_power(cube)
        expected = injected * config.samples_per_chirp * config.chirps_per_frame
        assert estimate == pytest.approx(expected, rel=0.1)

    def test_zero_cube_rejected(self, config, geometry):
        from radmat.signal_model import synthesize_frame

        cube = synthesize_frame([], config, geometry, 0.0, 7)
        with pytest.raises(CalibrationError):
            estimate_noise_power(cube)
