import math

import numpy as np
import pytest

from radmat import (
    CalibrationError,
    DomainError,
    dielectric_from_fresnel,
    fresnel_amplitude,
    reflection_coefficients,
)
from radmat.dielectric import R_P_CEILING, EmFeatureVector
from radmat.pipeline import extract_from_cube
from conftest import GATE_M, make_plate


class TestReflectionCoefficients:
    def test_square_root_of_power_ratio(self, profile):
        area = 1.7e-3
        sigma = 0.25 * profile.metal_plate_rho * area
        rho, r_p = reflection_coefficients(sigma, area, profile)
        assert rho == pytest.approx(0.25 * profile.metal_plate_rho, rel=1e-12)
        assert r_p == pytest.approx(0.5, rel=1e-12)

    def test_reference_self_consistency_clamps_below_one(self, profile):
        area = 1.7e-3
        sigma = profile.metal_plate_rho * area
        _, r_p = reflection_coefficients(sigma, area, profile)
        assert 1.0 - 1e-6 < r_p < 1.0

    def test_zero_rcs(self, profile):
        rho, r_p = reflection_coefficients(0.0, 1e-3, profile)
        assert rho == 0.0 and r_p == 0.0

    def test_missing_plate_calibration(self, profile):
        from dataclasses import replace

        incomplete = replace(profile, metal_plate_rho=None)
        with pytest.raises(CalibrationError):
            reflection_coefficients(1e-3, 1e-3, incomplete)


class TestDielectricFromFresnel:
    def test_vacuum(self):
        assert dielectric_from_fresnel(0.0, 0.0) == 1.0

    def test_normal_incidence_inverse(self):
        assert dielectric_from_fresnel(1.0 / 3.0, 0.0) == pytest.approx(4.0, rel=1e-12)

    def test_normal_incidence_is_the_closed_form_bit_for_bit(self):
        grid = [*np.linspace(0.0, 1.0, 20_001)[:-1].tolist(), R_P_CEILING]
        for r in grid:
            assert dielectric_from_fresnel(r, 0.0) == ((1.0 + r) / (1.0 - r)) ** 2, r

    def test_oblique_round_trip(self):
        theta = math.radians(20.0)
        r_p = fresnel_amplitude(6.0, theta)
        assert dielectric_from_fresnel(r_p, theta) == pytest.approx(6.0, rel=1e-6)

    @pytest.mark.parametrize("eps", [1.5, 2.0, 3.0, 4.0, 6.0, 9.0, 16.0, 25.0])
    @pytest.mark.parametrize("theta_deg", [0.0, 10.0, 20.0, 30.0])
    def test_forward_inverse_grid(self, eps, theta_deg):
        theta = math.radians(theta_deg)
        recovered = dielectric_from_fresnel(fresnel_amplitude(eps, theta), theta)
        assert recovered == pytest.approx(eps, rel=1e-6)

    def test_strictly_increasing_at_normal_incidence(self):
        values = [dielectric_from_fresnel(r, 0.0) for r in np.linspace(0.0, 0.95, 150)]
        assert np.all(np.diff(values) > 0)

    def test_strictly_increasing_in_true_epsilon_below_45_degrees(self):
        # the measured r_p is a magnitude, as in the simulator's amplitude law
        true_eps = np.linspace(1.0, 80.0, 2000).tolist()
        for theta_deg in np.arange(90) * 0.5:  # 0 to 44.5 degrees
            theta = math.radians(theta_deg)
            values = [
                dielectric_from_fresnel(abs(fresnel_amplitude(eps, theta)), theta)
                for eps in true_eps
            ]
            assert np.all(np.diff(values) > 0), theta_deg

    @pytest.mark.parametrize("theta_deg", [30.0, 45.5, 47.5])
    def test_zero_r_p_takes_the_plus_root(self, theta_deg):
        # from 45 degrees on, both eps = 1 and eps = tan^2 (Brewster) give r_p = 0
        theta = math.radians(theta_deg)
        expected = max(1.0, math.tan(theta) ** 2)
        assert dielectric_from_fresnel(0.0, theta) == pytest.approx(expected, rel=1e-12)

    def test_r_p_at_or_above_one_rejected(self):
        with pytest.raises(DomainError):
            dielectric_from_fresnel(1.0, 0.0)

    def test_angle_domain(self):
        with pytest.raises(DomainError):
            dielectric_from_fresnel(0.3, math.pi / 2)


class TestExtractFeatures:
    def test_oracle_plate_recovery_within_ten_percent(
        self, fixture_position, frame_factory, profile
    ):
        cube = frame_factory([make_plate(fixture_position, 4.0)], seed=51)
        features = extract_from_cube(cube, profile, GATE_M).features
        assert 3.6 <= features.dielectric_constant <= 4.4

    def test_metal_plate_reads_high_but_finite(self, fixture_position, frame_factory, profile):
        cube = frame_factory([make_plate(fixture_position, 1e6)], seed=52)
        features = extract_from_cube(cube, profile, GATE_M).features
        assert features.dielectric_constant >= 25.0
        assert math.isfinite(features.dielectric_constant)

    def test_incomplete_profile_fails_with_stage_label(
        self, fixture_position, frame_factory, profile, config, geometry
    ):
        from dataclasses import replace

        from radmat.calibration import measure
        from radmat.dielectric import extract_features
        from radmat.spectral import detect_target, range_angle, range_doppler

        incomplete = replace(profile, metal_plate_rho=None)
        cube = frame_factory([make_plate(fixture_position, 4.0)], seed=53)
        rd, ra = range_doppler(cube), range_angle(cube)
        det = detect_target(rd, ra, GATE_M)
        measurement = measure(det, ra, geometry, config, incomplete)
        with pytest.raises(CalibrationError, match="reflection"):
            extract_features(measurement, incomplete)

    def test_rcs_equals_rho_times_area(self, fixture_position, frame_factory, profile):
        cube = frame_factory([make_plate(fixture_position, 9.0)], seed=54)
        f = extract_from_cube(cube, profile, GATE_M).features
        assert f.rcs_m2 == pytest.approx(f.power_reflection * f.prca_area_m2, rel=1e-9)

    def test_geometry_independence_of_epsilon(self, fixture_position, frame_factory, profile):
        # doubling the facet area moves sigma hard but epsilon only mildly
        # (low-permittivity regime, where the inversion compresses power errors)
        small = extract_from_cube(
            frame_factory([make_plate(fixture_position, 1.2, area_m2=0.04)], seed=55),
            profile,
            GATE_M,
        ).features
        big = extract_from_cube(
            frame_factory([make_plate(fixture_position, 1.2, area_m2=0.08)], seed=55),
            profile,
            GATE_M,
        ).features
        sigma_change = abs(big.rcs_m2 - small.rcs_m2) / small.rcs_m2
        eps_change = abs(big.dielectric_constant - small.dielectric_constant) / small.dielectric_constant
        assert sigma_change >= 0.5
        assert eps_change < 0.10


class TestFeatureDocument:
    def test_round_trip(self, fixture_position, frame_factory, profile):
        cube = frame_factory([make_plate(fixture_position, 4.0)], seed=56)
        features = extract_from_cube(cube, profile, GATE_M).features
        doc = features.to_document()
        again = EmFeatureVector.from_document(doc)
        assert again == features

    def test_invariant_enforced(self):
        with pytest.raises(DomainError):
            EmFeatureVector(
                range_m=0.3,
                velocity_m_s=0.0,
                angle_rad=0.0,
                snr_db=30.0,
                rcs_m2=1.0,
                power_reflection=0.5,
                fresnel_coefficient=0.5,
                dielectric_constant=9.0,
                prca_area_m2=1.0,  # rcs != rho * area
            )
