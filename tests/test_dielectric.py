import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radmat import CalibrationError, DomainError, dielectric_from_fresnel, fresnel_amplitude
from radmat.calibration import measure
from radmat.dielectric import R_P_CEILING, EmFeatureVector, extract_features
from radmat.pipeline import detect, extract_from_cube
from conftest import GATE_M, METAL_EPSILON, make_plate, padded_range_bin_m


def _measured(cube, profile):
    _, ra, det = detect(cube, GATE_M)
    return measure(det, ra, profile)


class TestSphereScaleCancels:
    """The retired radar-equation reference: sigma = sigma_c * (SNR / SNR_c)
    * (R / R_c)^4, normalized by area and by the plate's, is the oracle.
    Whatever the sphere's sigma_c, SNR_c and R_c, it gives the r_p that
    the plate-referenced reflectivity gives."""

    @pytest.fixture(scope="class")
    def measurements(self, config, fixture_position, frame_factory, profile):
        plate = _measured(frame_factory([make_plate(fixture_position, METAL_EPSILON)], seed=12), profile)
        targets = [
            _measured(frame_factory([make_plate([0.0, 0.0, z], eps)], seed=seed), profile)
            for z, eps, seed in (
                (fixture_position[2], 4.0, 51),
                (12 * padded_range_bin_m(config), 2.0, 52),
                (21 * padded_range_bin_m(config), 9.0, 53),
            )
        ]
        return plate, targets

    @settings(max_examples=200, deadline=None)
    @given(
        sigma_c=st.floats(1e-3, 1e3),
        snr_c=st.floats(1e-3, 1e3),
        range_c=st.floats(1e-3, 1e3),
    )
    def test_retired_formula_gives_the_same_r_p(self, measurements, profile, sigma_c, snr_c, range_c):
        def rho(m):
            snr, range_m = m.synthesis.enhanced_snr_linear, m.detection.range_m
            return sigma_c * (snr / snr_c) * (range_m / range_c) ** 4 / m.region.area_m2

        plate, targets = measurements
        for target in targets:
            expected = min(math.sqrt(rho(target) / rho(plate)), R_P_CEILING)
            r_p = extract_features(target, profile).fresnel_coefficient
            assert r_p == pytest.approx(expected, rel=1e-14)


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

    def test_incomplete_profile_fails_with_stage_label(self, fixture_position, frame_factory, profile):
        from radmat.spectral import detect_target, range_angle, range_doppler

        incomplete = replace(profile, plate_reflectivity=None)
        cube = frame_factory([make_plate(fixture_position, 4.0)], seed=53)
        rd, ra = range_doppler(cube), range_angle(cube)
        det = detect_target(rd, ra, GATE_M)
        measurement = measure(det, ra, incomplete)
        with pytest.raises(CalibrationError, match="reflection"):
            extract_features(measurement, incomplete)

    def test_geometry_independence_of_epsilon(self, fixture_position, frame_factory, profile):
        # doubling the facet area moves sigma, which is proportional to the
        # reflectivity times the area, hard but epsilon only mildly
        # (low-permittivity regime, where the inversion compresses power errors)
        small, big = (
            _measured(frame_factory([make_plate(fixture_position, 1.2, area_m2=area)], seed=55), profile)
            for area in (0.04, 0.08)
        )
        sigma_change = (
            big.reflectivity * big.region.area_m2 / (small.reflectivity * small.region.area_m2) - 1.0
        )
        eps_small, eps_big = (extract_features(m, profile).dielectric_constant for m in (small, big))
        assert sigma_change >= 0.5
        assert abs(eps_big - eps_small) / eps_small < 0.10

    @pytest.mark.parametrize(
        "azimuth_deg",
        [
            0.0,
            *(
                pytest.param(azimuth, marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 3: the chain does not invert the cos^4 "
                    "facet falloff that the simulator applies off boresight",
                ))
                for azimuth in (10.0, 15.0, -15.0)
            ),
        ],
    )
    def test_facet_reads_its_epsilon_off_boresight(
        self, fixture_range_m, frame_factory, profile, azimuth_deg
    ):
        # a -z facet of eps 5.1 at the calibration range reads 5.115 at 0 deg
        # (+0.3 %), and 4.849, 4.551 and 4.552 at 10, 15 and -15 deg
        azimuth = math.radians(azimuth_deg)
        position = fixture_range_m * np.array([math.sin(azimuth), 0.0, math.cos(azimuth)])
        cube = frame_factory([make_plate(position, 5.1)], seed=57)
        features = extract_from_cube(cube, profile, GATE_M).features
        assert features.dielectric_constant == pytest.approx(5.1, rel=0.01)


class TestFeatureDocument:
    def test_round_trip(self, fixture_position, frame_factory, profile):
        cube = frame_factory([make_plate(fixture_position, 4.0)], seed=56)
        features = extract_from_cube(cube, profile, GATE_M).features
        doc = features.to_document()
        again = EmFeatureVector.from_document(doc)
        assert again == features

    def test_retired_keys_are_read_and_ignored(self, fixture_position, frame_factory, profile):
        # records written while the reflectivity carried the sphere's m^2 scale
        cube = frame_factory([make_plate(fixture_position, 4.0)], seed=56)
        features = extract_from_cube(cube, profile, GATE_M).features
        doc = {**features.to_document(), "rcs_m2": 0.0045, "power_reflection": 2.49}
        assert EmFeatureVector.from_document(doc) == features

    @pytest.mark.parametrize("snr_db, accepted", [(-math.inf, True), (math.inf, False), (math.nan, False)])
    def test_snr_db_may_be_minus_infinity_only(self, snr_db, accepted):
        # extract_features writes -inf for a zero SNR
        fields = dict(range_m=0.3, velocity_m_s=0.0, angle_rad=0.0, fresnel_coefficient=0.25,
                      dielectric_constant=2.8, prca_area_m2=0.04)
        if accepted:
            assert EmFeatureVector(snr_db=snr_db, **fields).snr_linear == 0.0
        else:
            with pytest.raises(DomainError, match="snr_db must be finite"):
                EmFeatureVector(snr_db=snr_db, **fields)
