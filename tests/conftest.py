"""Shared fixtures: a calibrated synthetic setup reused across the suite.

All simulator fixtures share one geometry and one bin-centered range so
that calibration ratios cancel processing gains exactly.
"""

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import radmat
from radmat import (
    ArrayGeometry,
    ChirpConfig,
    SceneTarget,
    default_geometry,
    synthesize_frame,
)
from radmat.calibration import estimate_noise_power
from radmat.pipeline import calibrate_from_cubes

# CI selects this with --hypothesis-profile=ci: the same examples every run,
# and no per-example time limit on a slow runner
settings.register_profile("ci", derandomize=True, deadline=None)

SPHERE_DIAMETER_M = 0.063
FIXTURE_NOISE_W = 1e-2
GATE_M = (0.1, 0.6)
METAL_EPSILON = 1.0e6


def child_env(**extra) -> dict:
    """This process's environment plus `extra`, with PYTHONPATH set so that
    a child process imports the same radmat as this one."""
    path = [str(Path(radmat.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, path))}


class ProviderHandler(BaseHTTPRequestHandler):
    """A visual provider's HTTP endpoint.  `behaviour` picks the answer;
    `seen` holds the last request's JSON body and Authorization header."""

    behaviour = "ok"
    seen = {}

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).seen = {"body": body, "auth": self.headers.get("Authorization")}
        if self.behaviour == "slow":
            time.sleep(1.0)
        if self.behaviour == "error":
            self.send_response(500)
            self.end_headers()
            return
        if self.behaviour == "garbage":
            payload = b"not json"
        elif self.behaviour == "bright":
            payload = json.dumps({"candidates": [["glass", 1.0]], "luminance": "bright"}).encode()
        elif self.behaviour == "array":
            payload = b"[]"
        else:
            payload = json.dumps(
                {"candidates": [["glass", 0.6], ["plastic", 0.4]], "luminance": 0.65}
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    """The endpoint URL of a local `ProviderHandler` server that answers "ok"
    until a test sets another behaviour."""
    ProviderHandler.behaviour = "ok"
    server = HTTPServer(("127.0.0.1", 0), ProviderHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/infer"
    server.shutdown()
    server.server_close()


def padded_range_bin_m(config: ChirpConfig) -> float:
    n_fft = 1 << (config.samples_per_chirp - 1).bit_length()
    return 3.0e8 * config.sample_rate_hz / (2.0 * config.slope_hz_per_s * n_fft)


@pytest.fixture(scope="session")
def config() -> ChirpConfig:
    return ChirpConfig()


@pytest.fixture(scope="session")
def geometry(config) -> ArrayGeometry:
    return default_geometry(config, element_count=8)


@pytest.fixture(scope="session")
def fixture_range_m(config) -> float:
    # centered on padded FFT bin 16 so detection recovers the range exactly
    return 16 * padded_range_bin_m(config)


@pytest.fixture(scope="session")
def fixture_position(fixture_range_m) -> np.ndarray:
    return np.array([0.0, 0.0, fixture_range_m])


def make_plate(position, epsilon, area_m2=0.04, label=""):
    return SceneTarget(
        position_m=np.asarray(position, dtype=float),
        dielectric_constant=epsilon,
        facet_normal=np.array([0.0, 0.0, -1.0]),
        facet_area_m2=area_m2,
        label=label,
    )


def make_sphere(position, diameter_m=SPHERE_DIAMETER_M):
    return SceneTarget(
        position_m=np.asarray(position, dtype=float),
        dielectric_constant=1.0e12,
        facet_normal=np.array([0.0, 0.0, -1.0]),
        facet_area_m2=np.pi * (diameter_m / 2.0) ** 2,
        label="calibration sphere",
    )


@pytest.fixture(scope="session")
def frame_factory(config, geometry):
    def build(targets, seed, noise_power_w=FIXTURE_NOISE_W, **kwargs):
        return synthesize_frame(targets, config, geometry, noise_power_w, seed, **kwargs)

    return build


@pytest.fixture(scope="session")
def noise_power(frame_factory) -> float:
    return estimate_noise_power(frame_factory([], seed=99))


def build_profile(position, frame_factory, noise_power, cube_noise_w):
    sphere_cube = frame_factory(
        [make_sphere(position)], seed=11, noise_power_w=cube_noise_w
    )
    plate_cube = frame_factory(
        [make_plate(position, METAL_EPSILON, label="metal reference plate")],
        seed=12,
        noise_power_w=cube_noise_w,
    )
    return calibrate_from_cubes(
        sphere_cube, plate_cube, SPHERE_DIAMETER_M, noise_power, GATE_M
    )


@pytest.fixture(scope="session")
def profile(fixture_position, frame_factory, noise_power):
    """Sphere + metal plate calibration against the shared fixture scene."""
    return build_profile(fixture_position, frame_factory, noise_power, FIXTURE_NOISE_W)


@pytest.fixture(scope="session")
def clean_profile(fixture_position, frame_factory, noise_power):
    """Calibration from noise-free cubes, for exact phase-identity checks."""
    return build_profile(fixture_position, frame_factory, noise_power, 0.0)
