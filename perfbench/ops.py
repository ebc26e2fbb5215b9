"""The benchmark's unit of work and the checks on its output.

One op identifies one frame; it is the library form of `radmat pipeline`:
`pipeline.extract_from_cube`, `vlm.propose` with the mock provider, then
`pipeline.run_identification` against the default store.  Calls go through
module attributes so that the tracer's wrappers are seen.
"""

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stdout

from radmat import calibration, cli, knowledge, pipeline, signal_model, spectral, vlm
from radmat.errors import RadmatError

import inputs

CLI_SHIM = "import sys; from radmat.cli import main; sys.exit(main())"
GATE_ARGS = [str(inputs.GATE_M[0]), str(inputs.GATE_M[1])]


def canonical(document: dict) -> bytes:
    """The byte form `radmat` writes: sorted keys, two-space indent."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")


def detect(cube):
    rd = spectral.range_doppler(cube)
    ra = spectral.range_angle(cube)
    return ra, spectral.detect_target(rd, ra, inputs.GATE_M)


def set_up(cubes):
    """Store, noise floor, sphere and plate calibration: the in-process set-up."""
    store = knowledge.default_store()
    noise = calibration.estimate_noise_power(cubes["empty"])
    sphere = cubes["sphere"]
    _, sphere_det = detect(sphere)
    profile = calibration.calibrate_sphere(
        sphere_det, sphere.geometry, sphere.config, inputs.SPHERE_DIAMETER_M, noise
    )
    plate = cubes["plate"]
    plate_ra, plate_det = detect(plate)
    profile = calibration.calibrate_plate(
        plate_det, plate_ra, plate.geometry, plate.config, profile
    )
    return store, profile


def identify(cube, image_ref, profile, provider, store):
    extraction = pipeline.extract_from_cube(cube, profile, inputs.GATE_M)
    visual = vlm.propose(vlm.VisualQuery(image_ref=image_ref), provider)
    return pipeline.run_identification(extraction.features, visual, store)


def stream_op(pool, profile, provider, store):
    def op(frame):
        return identify(pool[frame.index], frame.image_ref, profile, provider, store)

    return op


def scene_op(shape, scenes, profile, provider, store):
    config, geometry = shape.config, shape.geometry

    def op(frame):
        cube = signal_model.synthesize_frame(
            scenes[frame.index], config, geometry, inputs.NOISE_POWER_W, frame.noise_seed
        )
        return identify(cube, frame.image_ref, profile, provider, store)

    return op


def outcome_bytes(outcome) -> bytes:
    return canonical(outcome.to_document())


def pipeline_argv(frame, work, cube_path):
    return [
        "pipeline", "--cube", str(cube_path), "--profile", str(work / "profile.json"),
        "--provider", str(work / "provider.json"), "--image", frame.image_ref,
        "--gate", *GATE_ARGS, "-o", str(work / f"decision_{frame.index:03d}.json"),
    ]


def calibrate_argv(work):
    return [
        "calibrate", "--sphere", str(work / "sphere.rcub"), "--plate", str(work / "plate.rcub"),
        "--noise-cube", str(work / "empty.rcub"),
        "--sphere-diameter", str(inputs.SPHERE_DIAMETER_M),
        "--gate", *GATE_ARGS, "-o", str(work / "profile.json"),
    ]


def cli_subprocess_op(work, cube_paths, env):
    """One `radmat pipeline` process per frame; returns its exit code."""

    def op(frame):
        argv = [sys.executable, "-c", CLI_SHIM, *pipeline_argv(frame, work, cube_paths[frame.index])]
        return subprocess.run(
            argv, env=env, cwd=work, capture_output=True, timeout=60
        ).returncode

    return op


def cli_inprocess_op(work, cube_paths):
    """`radmat.cli.main(argv)` called in this process, for the traced run."""

    def op(frame):
        with redirect_stdout(io.StringIO()):
            return cli.main(pipeline_argv(frame, work, cube_paths[frame.index]))

    return op


def cli_result_bytes(work, frame, code):
    if code != 0:
        raise CliExit(code)
    return (work / f"decision_{frame.index:03d}.json").read_bytes()


class CliExit(Exception):
    """`radmat` exited non-zero."""


OP_ERRORS = (RadmatError, CliExit)


def check_decision(raw: bytes, store_names, fixture_entry) -> list:
    """Reasons the decision document is invalid (empty when it is valid)."""
    try:
        doc = json.loads(raw)
        material = doc["material"]
        w_vis, w_rad = float(doc["w_vis"]), float(doc["w_rad"])
        features = doc["inputs"]["features"]
        radar = doc["inputs"]["radar_candidates"]["candidates"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable decision: {exc!r}"]
    problems = []
    allowed = set(store_names) | {name for name, _ in fixture_entry["candidates"]}
    if material not in allowed:
        problems.append(f"material {material!r} is neither in the store nor a visual candidate")
    if abs(w_vis + w_rad - 1.0) > 1e-9:
        problems.append(f"w_vis + w_rad = {w_vis + w_rad!r}")
    for key, value in features.items():
        if key != "kind" and not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"feature {key} = {value!r}")
    if not radar:
        problems.append("no radar candidates")
    return problems


def radar_reading(raw: bytes):
    """(radar top-1 material, estimated dielectric constant) of a decision."""
    doc = json.loads(raw)
    return (
        doc["inputs"]["radar_candidates"]["candidates"][0][0],
        float(doc["inputs"]["features"]["dielectric_constant"]),
    )
