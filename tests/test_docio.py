"""The dataclass document codec: defaults, typing errors, round trips and pinned bytes."""

import math
from pathlib import Path

import numpy as np
import pytest

from radmat.calibration import CalibrationProfile
from radmat.signal_model import ArrayGeometry, ChirpConfig, default_geometry
from radmat.dielectric import EmFeatureVector
from radmat.docio import canonical_bytes, check_keys, malformed, read_document, write_document
from radmat.errors import CalibrationError, DocumentError, DomainError, ProviderError, SceneError
from radmat.fusion import RadarContext, VisualContext
from radmat.synthesis import SynthesisResult
from radmat.vlm import ProviderConfig, VisualQuery

PROFILE_BYTES = b"""\
{
  "array": {
    "element_count": 3,
    "spacing_m": 0.00125
  },
  "chirp": {
    "bandwidth_hz": 3960000000.0,
    "carrier_frequency_hz": 60000000000.0,
    "chirps_per_frame": 64,
    "sample_rate_hz": 10000000.0,
    "samples_per_chirp": 600,
    "slope_hz_per_s": 66000000000000.0
  },
  "kind": "calibration_profile",
  "noise_power_w": 0.01,
  "phase_phasors_re_im": [
    [
      1.0,
      0.0
    ],
    [
      0.0,
      1.0
    ],
    [
      -0.6,
      0.8
    ]
  ],
  "plate_reflectivity": 0.75,
  "version": 2
}
"""

SYNTHESIS_BYTES = b"""\
{
  "coherence_factor": 0.875,
  "coherent_sum_re_im": [
    1.5,
    1.75
  ],
  "enhanced_snr_linear": 40.5,
  "focused_signals_re_im": [
    [
      1.0,
      2.0
    ],
    [
      0.5,
      -0.25
    ]
  ],
  "kind": "synthesis_result",
  "weighted_vector": [
    1.05,
    0.0,
    -1.8
  ],
  "weights": [
    2.0,
    0.25
  ]
}
"""


def _profile(plate_reflectivity=0.75):
    return CalibrationProfile(
        chirp=ChirpConfig(),
        array=ArrayGeometry(3, 0.00125),
        phase_phasors=np.array([1.0, 1j, -0.6 + 0.8j]),
        noise_power_w=0.01,
        plate_reflectivity=plate_reflectivity,
    )


class TestPinnedBytes:
    def test_calibration_profile(self):
        assert canonical_bytes(_profile().to_document()) == PROFILE_BYTES

    def test_calibration_profile_round_trip(self):
        doc = _profile().to_document()
        assert canonical_bytes(CalibrationProfile.from_document(doc).to_document()) == PROFILE_BYTES

    def test_synthesis_result_omits_unit_vectors(self):
        result = SynthesisResult(
            focused_signals=np.array([1.0 + 2.0j, 0.5 - 0.25j]),
            coherent_sum=1.5 + 1.75j,
            weights=np.array([2.0, 0.25]),
            weighted_vector=np.array([1.05, 0.0, -1.8]),
            coherence_factor=0.875,
            enhanced_snr_linear=40.5,
        )
        assert canonical_bytes(result.to_document()) == SYNTHESIS_BYTES


def _decision_inputs():
    """The visual and radar contexts of the b7 golden decision's inputs."""
    inputs = read_document(Path(__file__).parent / "data" / "golden" / "b7_decision.json")["inputs"]
    features = EmFeatureVector.from_document(inputs["features"])
    radar = RadarContext(
        snr_linear=features.snr_linear,
        distance_m=features.range_m,
        incidence_angle_rad=abs(features.angle_rad),
        candidates=tuple(map(tuple, inputs["radar_candidates"]["candidates"])),
    )
    return VisualContext.from_document(inputs["visual_context"]), radar


def _written_documents():
    visual, radar = _decision_inputs()
    return [
        pytest.param(
            # the record that extract_features writes for an SNR <= 0
            EmFeatureVector(1.0, 0.0, 0.0, -math.inf, 0.25, 2.8, 0.25),
            id="features-snr-minus-infinity",
        ),
        pytest.param(
            CalibrationProfile(
                chirp=ChirpConfig(samples_per_chirp=64, chirps_per_frame=4),
                array=ArrayGeometry(3, 0.00125),
                phase_phasors=np.array([1.0, 1j, -1.0]),
                noise_power_w=2.0,
            ),
            id="profile-whole-floats-null-rho",
        ),
        pytest.param(visual, id="decision-visual-context"),
        pytest.param(radar, id="decision-radar-context"),
    ]


class TestReadsWhatItWrites:
    @pytest.mark.parametrize("written", _written_documents())
    def test_round_trip(self, tmp_path, written):
        path = tmp_path / "doc.json"
        write_document(path, written.to_document())
        read = type(written).from_document(read_document(path))
        assert canonical_bytes(read.to_document()) == path.read_bytes()


class TestDefaultsAndNulls:
    def test_null_plate_reflectivity_loads_incomplete_profile(self):
        doc = _profile().to_document()
        doc["plate_reflectivity"] = None
        profile = CalibrationProfile.from_document(doc)
        assert profile.plate_reflectivity is None
        assert not profile.is_complete

    def test_array_without_spacing_is_the_default_geometry(self):
        doc = _profile().to_document()
        del doc["array"]["spacing_m"]
        profile = CalibrationProfile.from_document(doc)
        assert profile.array == default_geometry(profile.chirp, 3)

    def test_missing_required_key_raises_callers_error(self):
        doc = _profile().to_document()
        del doc["noise_power_w"]
        with pytest.raises(CalibrationError, match="noise_power_w"):
            CalibrationProfile.from_document(doc)


class TestProviderConfigDocument:
    def test_missing_mode(self):
        with pytest.raises(DocumentError, match="mode"):
            ProviderConfig.from_document({"fixture_path": "fixtures.json"})

    def test_non_numeric_timeout(self):
        with pytest.raises(DocumentError):
            ProviderConfig.from_document(
                {"mode": "http", "endpoint_url": "http://127.0.0.1:9/", "timeout_ms": "x"}
            )

    def test_benchmark_provider_document(self):
        config = ProviderConfig.from_document({"mode": "mock", "fixture_path": "fixture.json"})
        assert config == ProviderConfig(mode="mock", fixture_path="fixture.json")

    def test_defaults_and_ignored_keys(self):
        config = ProviderConfig.from_document(
            {"mode": "mock", "fixture_path": "fixtures.json", "max_in_flight": 4}
        )
        assert config == ProviderConfig(mode="mock", fixture_path="fixtures.json")


class TestWrongDocuments:
    def test_misspelt_key_rejected(self):
        visual = VisualContext(0.5, 0.5, 0.5, (("wood", 1.0),)).to_document()
        with pytest.raises(DomainError, match="lumninance"):
            VisualContext.from_document({**visual, "lumninance": 0.5})

    def test_wrong_kind_rejected(self):
        visual = VisualContext(0.5, 0.5, 0.5, (("wood", 1.0),)).to_document()
        with pytest.raises(DomainError, match="visual_context"):
            RadarContext.from_document(visual)

    def test_wrong_kind_raises_callers_error(self):
        with pytest.raises(CalibrationError, match="kind"):
            CalibrationProfile.from_document({**_profile().to_document(), "kind": "visual_context"})

    def test_unknown_provider_key_rejected(self):
        with pytest.raises(DocumentError, match="max_in_fligth"):
            ProviderConfig.from_document(
                {"mode": "mock", "fixture_path": "fixtures.json", "max_in_fligth": 4}
            )


class TestCheckKeys:
    def test_kind_admitted_only_where_the_format_lists_it(self):
        check_keys({"kind": "record", "x": 1}, "record", ("kind", "x"))
        check_keys({"x": 1}, "record", ("kind", "x"))
        with pytest.raises(ValueError, match="kind 'other' is not 'record'"):
            check_keys({"kind": "other", "x": 1}, "record", ("kind", "x"))
        # without "kind" among the keys the label only names the record
        for kind in ("record", "other"):
            with pytest.raises(ValueError, match=r"unknown keys \['kind'\]"):
                check_keys({"kind": kind, "x": 1}, "record", ("x",))


class TestMalformed:
    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda: {}["seed"], "scene: missing key 'seed'"),
            (lambda: int("x"), "scene: invalid literal"),
            (lambda: float(None), "scene: float.. argument must be"),
            (lambda: VisualQuery(""), "scene: image_ref must not be empty"),
            (lambda: b"\xff".decode("utf-8"), "scene: 'utf-8' codec"),
        ],
        ids=["key", "value", "type", "domain", "unicode"],
    )
    def test_document_faults_become_the_callers_error(self, fault, message):
        with pytest.raises(ProviderError, match=message):
            with malformed(ProviderError, "scene"):
                fault()

    def test_other_exceptions_pass_through(self):
        with pytest.raises(SceneError):
            with malformed(DocumentError, "scene"):
                raise SceneError("target out of range")
        # an inner reader's own error class is kept, and not prefixed twice
        with pytest.raises(CalibrationError, match="^invalid CalibrationProfile document"):
            with malformed(DocumentError, "scene"):
                CalibrationProfile.from_document({"version": 2})
        with pytest.raises(AttributeError):
            with malformed(DocumentError, "scene"):
                [].get("seed")

    @pytest.mark.parametrize(
        "data, message",
        [(b'{"a": "\xff"}', "not a UTF-8 JSON document"), (b"[1]", "must be an object")],
        ids=["non-utf8", "array"],
    )
    def test_read_document_rejects(self, tmp_path, data, message):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        with pytest.raises(DocumentError, match=message):
            read_document(path)
