import math

import numpy as np
import pytest

from radmat import (
    CalibrationError,
    ChirpConfig,
    DomainError,
    RadarCube,
    SceneTarget,
    calibrate_plate,
    calibrate_sphere,
    default_geometry,
    rcs_from_snr,
    synthesize_frame,
)
from radmat import pipeline, spectral
from radmat.calibration import CalibrationProfile, estimate_noise_power, measure
from radmat.docio import canonical_bytes
from radmat.pipeline import calibrate_from_cubes, detect, extract_from_cube
from radmat.spectral import DEFAULT_ANGLE_GRID_RAD, detect_target, range_angle, range_doppler
from conftest import (
    FIXTURE_NOISE_W,
    GATE_M,
    METAL_EPSILON,
    SPHERE_DIAMETER_M,
    build_profile,
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
        # per-antenna hardware phase errors, applied to a noise-free cube
        turns = np.exp(1j * np.linspace(0.3, -1.2, geometry.element_count))
        clean = synthesize_frame([make_sphere(fixture_position)], config, geometry, 0.0, 43)
        cube = RadarCube(clean.samples * turns, config, geometry)
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


def _reference_cubes(shape, seed):
    """Sphere, plate and empty cubes of one calibrated shape and seed."""
    samples, chirps, antennas, reference_bin = shape
    config = ChirpConfig(samples_per_chirp=samples, chirps_per_frame=chirps)
    geometry = default_geometry(config, antennas)
    position = [0.0, 0.0, reference_bin * padded_range_bin_m(config)]

    def frame(targets, offset):
        return synthesize_frame(targets, config, geometry, FIXTURE_NOISE_W, 10 * seed + offset)

    plate = make_plate(position, METAL_EPSILON)
    return frame([make_sphere(position)], 1), frame([plate], 2), frame([], 3)


class TestReferencesReadAsThemselves:
    """The sphere and the plate go through the target's measurement step,
    so each reference measured as a target reads exactly its own value."""

    @pytest.mark.parametrize("shape", CALIBRATED_SHAPES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sphere_and_plate(self, shape, seed):
        sphere_cube, plate_cube, empty_cube = _reference_cubes(shape, seed)
        config, geometry = sphere_cube.config, sphere_cube.geometry
        noise = estimate_noise_power(empty_cube)
        profile = calibrate_from_cubes(sphere_cube, plate_cube, SPHERE_DIAMETER_M, noise, GATE_M)

        _, ra, det = detect(sphere_cube, GATE_M)
        sphere = measure(det, ra, geometry, config, profile)
        assert sphere.synthesis.enhanced_snr_linear == profile.sphere_snr_linear
        assert sphere.rcs_m2 == profile.sphere_rcs_m2
        plate = extract_from_cube(plate_cube, profile, GATE_M).features
        assert plate.power_reflection == profile.metal_plate_rho


class TestOneRangeTransform:
    """Calibration and extraction detect on the gated map's held rows,
    beamformed at the detected Doppler bin, and never build the full map."""

    def test_per_frame_path_never_builds_the_full_map(
        self, monkeypatch, fixture_position, frame_factory, noise_power
    ):
        def full_map(cube):
            raise AssertionError("the full range-angle map was built")

        monkeypatch.setattr(spectral, "range_angle", full_map)
        monkeypatch.setattr(pipeline, "range_angle", full_map, raising=False)
        profile = build_profile(fixture_position, frame_factory, noise_power, FIXTURE_NOISE_W)
        cube = frame_factory([make_plate(fixture_position, 4.0)], seed=71)
        assert cube.samples.shape == (600, 64, 8)
        features = extract_from_cube(cube, profile, GATE_M).features
        assert abs(features.dielectric_constant - 4.0) / 4.0 < 0.10

    @pytest.mark.parametrize("shape", CALIBRATED_SHAPES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_profile_equals_full_map_calibration(self, shape, seed):
        # the full-map set-up: full range-Doppler and static range-angle maps
        sphere_cube, plate_cube, empty_cube = _reference_cubes(shape, seed)
        config, geometry = sphere_cube.config, sphere_cube.geometry
        noise = estimate_noise_power(empty_cube)
        det = detect_target(range_doppler(sphere_cube), range_angle(sphere_cube), GATE_M)
        full = calibrate_sphere(det, geometry, config, SPHERE_DIAMETER_M, noise)
        plate_ra = range_angle(plate_cube)
        plate_det = detect_target(range_doppler(plate_cube), plate_ra, GATE_M)
        full = calibrate_plate(plate_det, plate_ra, geometry, config, full)
        held = calibrate_from_cubes(sphere_cube, plate_cube, SPHERE_DIAMETER_M, noise, GATE_M)
        assert canonical_bytes(held.to_document()) == canonical_bytes(full.to_document())

    def test_mover_keeps_its_angle_beside_a_dim_static_reflector(
        self, fixture_range_m, frame_factory, profile
    ):
        # a board moving one Doppler bin, and a metal facet of 1/20 its area
        # in the same range row, 30 degrees off and facing the radar: the
        # chirp mean all but cancels the mover, so its zero-Doppler row
        # peaks at the reflector
        mover = SceneTarget(
            position_m=np.array([0.0, 0.0, fixture_range_m]),
            radial_velocity_m_s=0.65,
            dielectric_constant=5.1,
            facet_area_m2=0.04,
        )
        azimuth = math.radians(30.0)
        direction = np.array([math.sin(azimuth), 0.0, math.cos(azimuth)])
        reflector = SceneTarget(
            position_m=fixture_range_m * direction,
            dielectric_constant=METAL_EPSILON,
            facet_normal=-direction,
            facet_area_m2=0.002,
        )
        cube = frame_factory([mover, reflector], seed=7)
        result = extract_from_cube(cube, profile, GATE_M)
        assert result.detection.doppler_bin != range_doppler(cube, GATE_M).zero_doppler_bin
        grid_step = DEFAULT_ANGLE_GRID_RAD[1] - DEFAULT_ANGLE_GRID_RAD[0]
        assert abs(result.features.angle_rad) <= grid_step
        assert abs(result.features.dielectric_constant - 5.1) / 5.1 < 0.10


class TestProfilePersistence:
    def test_document_round_trip_bit_exact(self, profile):
        doc = profile.to_document()
        reloaded = CalibrationProfile.from_document(doc)
        assert canonical_bytes(reloaded.to_document()) == canonical_bytes(doc)

    def test_invalid_document_rejected(self):
        with pytest.raises(CalibrationError):
            CalibrationProfile.from_document({"kind": "calibration_profile"})

    @pytest.mark.parametrize("re", [2.0, math.nan])
    def test_phasor_magnitude_validated(self, profile, re):
        doc = profile.to_document()
        doc["phase_phasors_re_im"][0] = [re, 0.0]
        with pytest.raises(CalibrationError, match="unit magnitude"):
            CalibrationProfile.from_document(doc)

    @pytest.mark.parametrize(
        "field",
        [
            "sphere_rcs_m2",
            "sphere_range_m",
            "sphere_snr_linear",
            "noise_power_w",
            "metal_plate_rho",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_scalar_rejected(self, profile, field, value):
        doc = {**profile.to_document(), field: value}
        with pytest.raises(CalibrationError, match="must be finite and positive"):
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
