"""No malformed outside document ends in a traceback.

Every document the CLI reads starts from a valid one that runs through
`pipeline`, `identify` or `fuse` with exit 0.  One value anywhere in one
document is then replaced by a value of the wrong type, or the document
is written as bytes that are not UTF-8, and `main()` must return one of
its exit codes.  A number is never substituted: a plausible-looking count
(a scene's `chirps_per_frame` of 10^8, say) is valid and only expensive.

Every value also meets the one typing rule of outside values: a number
given as `true` or as a string, a count given a fractional value and a
string given as a number each exit with the code of the document that
holds it.
"""

import contextlib
import functools
import io
import operator
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from radmat import ChirpConfig, default_geometry, default_store, synthesize_frame
from radmat.calibration import estimate_noise_power
from radmat.cli import main
from radmat.docio import canonical_bytes
from radmat.pipeline import calibrate_from_cubes
from conftest import SPHERE_DIAMETER_M, make_plate, make_sphere

# a small frame, so that each example runs the whole chain in milliseconds
SMALL = ChirpConfig(samples_per_chirp=64, chirps_per_frame=4)
ELEMENTS = 4
GATE = ("0.1", "3.0")
NOISE_W = 1e-2
WRONG_VALUES = (None, "x", [], [1], {})
# every status main returns; argparse's usage status 2 is raised, not returned
EXIT_CODES = {0, 3, 4, 5, 6, 7, 8, 9}
# each document's exit code, and the documents that each command reads
DOCUMENT_CODES = {
    "scene.json": 4, "store.json": 4, "provider.json": 4, "fixture.json": 8,
    "profile.json": 6, "features.json": 7, "visual.json": 7, "radar.json": 7,
}
READS = (
    {"scene.json", "profile.json", "store.json", "provider.json", "fixture.json"},
    {"features.json", "store.json"},
    {"visual.json", "radar.json"},
)
COUNTS = {"samples_per_chirp", "chirps_per_frame", "element_count", "seed", "timeout_ms"}
# keys that are read and ignored, so no value of theirs is refused
IGNORED = {"max_distance_m", "measured_epsilon", "max_in_flight"}


@functools.cache
def base_documents() -> dict:
    """File name -> a valid document, for every document the CLI reads."""
    geometry = default_geometry(SMALL, ELEMENTS)
    # four padded range bins out, inside the gate
    range_m = 4 * 3.0e8 * SMALL.sample_rate_hz / (2 * SMALL.slope_hz_per_s * 64)
    position = np.array([0.0, 0.0, range_m])
    noise_power = estimate_noise_power(synthesize_frame([], SMALL, geometry, NOISE_W, 99))
    sphere = synthesize_frame([make_sphere(position)], SMALL, geometry, NOISE_W, 11)
    plate = synthesize_frame([make_plate(position, 1.0e6)], SMALL, geometry, NOISE_W, 12)
    profile = calibrate_from_cubes(
        sphere, plate, SPHERE_DIAMETER_M, noise_power, tuple(map(float, GATE))
    )
    store = default_store()
    candidates = [["glass", 0.6], ["plastic", 0.4]]
    return {
        "scene.json": {
            "chirp": {
                "carrier_frequency_hz": SMALL.carrier_frequency_hz,
                "bandwidth_hz": SMALL.bandwidth_hz,
                "slope_hz_per_s": SMALL.slope_hz_per_s,
                "sample_rate_hz": SMALL.sample_rate_hz,
                "samples_per_chirp": SMALL.samples_per_chirp,
                "chirps_per_frame": SMALL.chirps_per_frame,
            },
            "array": {"element_count": ELEMENTS, "spacing_m": SMALL.wavelength_m / 4.0},
            "targets": [
                {
                    "label": "plate",
                    "position_m": position.tolist(),
                    "radial_velocity_m_s": 0.0,
                    "dielectric_constant": 4.0,
                    "facet_normal": [0.0, 0.0, -1.0],
                    "facet_area_m2": 0.04,
                }
            ],
            "noise_power_w": NOISE_W,
            "seed": 5,
        },
        "profile.json": profile.to_document(),
        "store.json": {
            "materials": [
                {
                    "id": f"M{i}",
                    "name": record.name,
                    "epsilon": {
                        "mean": record.epsilon_mean,
                        "std": record.epsilon_std,
                        "low": record.epsilon_low,
                        "high": record.epsilon_high,
                    },
                    "source": record.source,
                }
                for i, record in enumerate(store)
                if record.name in ("plastic", "paper", "wood")
            ]
        },
        "provider.json": {"mode": "mock", "fixture_path": "fixture.json", "timeout_ms": 1000},
        "fixture.json": {"cup": {"candidates": candidates, "luminance": 0.7, "complexity": 0.3}},
        "features.json": {
            "kind": "em_feature_vector",
            "range_m": 1.42,
            "velocity_m_s": 0.0,
            "angle_rad": 0.0,
            "snr_db": 25.0,
            "fresnel_coefficient": 0.25,
            "dielectric_constant": 2.8,
            "prca_area_m2": 0.25,
        },
        "visual.json": {
            "kind": "visual_context",
            "luminance": 0.8,
            "complexity": 0.2,
            "vlm_entropy": 0.971,
            "candidates": candidates,
        },
        "radar.json": {
            "kind": "radar_context",
            "snr_linear": 1e3,
            "distance_m": 0.3,
            "max_distance_m": 5.0,
            "incidence_angle_rad": 0.0,
            "measured_epsilon": 2.8,
            "candidates": [["plastic", 0.8], ["paper", 0.2]],
        },
    }


def commands(work: Path) -> list:
    """Between them, the three commands read every document above."""
    return [
        [
            "pipeline", "--scene", str(work / "scene.json"),
            "--profile", str(work / "profile.json"), "--store", str(work / "store.json"),
            "--provider", str(work / "provider.json"), "--image", "cup",
            "--gate", *GATE, "-o", str(work / "decision.json"),
        ],
        [
            "identify", str(work / "features.json"), "--store", str(work / "store.json"),
            "-o", str(work / "candidates.json"),
        ],
        [
            "fuse", "--visual", str(work / "visual.json"), "--radar", str(work / "radar.json"),
            "-o", str(work / "fused.json"),
        ],
    ]


def value_paths(value, path=()):
    """The path of every value inside a document, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield (*path, key)
        if isinstance(item, (dict, list)):
            yield from value_paths(item, (*path, key))


def replaced(document, path, new_value):
    if not path:
        return new_value
    copy = dict(document) if isinstance(document, dict) else list(document)
    copy[path[0]] = replaced(document[path[0]], path[1:], new_value)
    return copy


def run_all(documents: dict, overrides: dict) -> list:
    """Exit codes of the three commands on the documents, some written as raw bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, document in documents.items():
            if name == "provider.json" and isinstance(document.get("fixture_path"), str):
                document = {**document, "fixture_path": str(work / document["fixture_path"])}
            data = overrides.get(name) or canonical_bytes(document)
            (work / name).write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return [main(argv) for argv in commands(work)]


@st.composite
def corruptions(draw):
    """(file name, path or None for non-UTF-8 bytes, replacement value)."""
    documents = base_documents()
    name = draw(st.sampled_from(sorted(documents)))
    path = draw(st.sampled_from([None, *value_paths(documents[name])]))
    return name, path, draw(st.sampled_from(WRONG_VALUES))


def test_valid_documents_run_every_command():
    assert run_all(base_documents(), {}) == [0, 0, 0]


@settings(max_examples=300, deadline=None)
@given(corruptions())
def test_one_wrong_value_exits_with_a_code(corruption):
    name, path, value = corruption
    documents = dict(base_documents())
    overrides = {}
    if path is None:
        overrides[name] = b"{\xff" + canonical_bytes(documents[name])[1:]
    else:
        documents[name] = replaced(documents[name], path, value)
    codes = run_all(documents, overrides)
    assert set(codes) <= EXIT_CODES, codes
    if path is None:
        assert 4 in codes, codes


def wrong_types(value, key):
    """Values of the wrong JSON type, or a fraction for a count, in place of ``value``."""
    if type(value) in (int, float):
        yield from (True, str(value))
        if key in COUNTS:
            yield value + 0.5
    elif isinstance(value, str):
        yield 1


def test_wrong_value_type_exits_with_its_documents_code():
    wrong = []
    for name, document in base_documents().items():
        for path in value_paths(document):
            if path[-1] in IGNORED:
                continue
            for value in wrong_types(functools.reduce(operator.getitem, path, document), path[-1]):
                codes = run_all({**base_documents(), name: replaced(document, path, value)}, {})
                expected = [DOCUMENT_CODES[name] if name in reads else 0 for reads in READS]
                if codes != expected:
                    wrong.append((name, path, value, codes, expected))
    assert not wrong, wrong
