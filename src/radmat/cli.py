"""Command-line surface for batch processing and golden-file testing.

Subcommands: simulate, calibrate, extract, identify, fuse, pipeline.
All outputs are canonical JSON documents (binary only for radar cubes),
so identical inputs and seeds produce byte-identical files.

Exit codes partition the error classes:

    0  success
    2  usage error (argparse: an unknown, missing or malformed option)
    3  scene error (e.g. target outside the unambiguous range)
    4  format error (corrupt cube or malformed document)
    5  no target inside the gate
    6  calibration error
    7  domain error (invalid values, inversion failure)
    8  visual provider error
    9  input/output file error
"""

import argparse
import atexit
import functools
import gc
import os
import sys

from . import calibration, cube_io, docio, knowledge, pipeline, signal_model, vlm
from .dielectric import EmFeatureVector
from .errors import (
    CalibrationError,
    DocumentError,
    DomainError,
    FormatError,
    NoTargetError,
    ProviderError,
    SceneError,
)
from .fusion import RadarContext, VisualContext, decide
from .spectral import range_angle_at_doppler, range_doppler

EXIT_OK = 0
EXIT_SCENE = 3
EXIT_FORMAT = 4
EXIT_NO_TARGET = 5
EXIT_CALIBRATION = 6
EXIT_DOMAIN = 7
EXIT_PROVIDER = 8
EXIT_IO = 9

_EXIT_BY_ERROR = (
    (SceneError, EXIT_SCENE, "scene"),
    (NoTargetError, EXIT_NO_TARGET, "no-target"),
    (CalibrationError, EXIT_CALIBRATION, "calibration"),
    (FormatError, EXIT_FORMAT, "format"),
    (DocumentError, EXIT_FORMAT, "format"),
    (ProviderError, EXIT_PROVIDER, "provider"),
    (DomainError, EXIT_DOMAIN, "domain"),
    (OSError, EXIT_IO, "io"),
)

_EPILOG = (
    "exit codes: 0 ok, 2 usage, 3 scene, 4 format, 5 no-target, "
    "6 calibration, 7 domain, 8 provider, 9 io"
)


def _load_profile(path) -> calibration.CalibrationProfile:
    return calibration.CalibrationProfile.from_document(docio.read_document(path))


def _load_store(path) -> knowledge.MaterialStore:
    return knowledge.default_store() if path is None else knowledge.load_store(path)


def _simulate_scene(path) -> signal_model.RadarCube:
    """The cube of the scene document, simulated with the document's seed."""
    return signal_model.synthesize_frame(*cube_io.load_scene(path))


def cmd_simulate(args) -> int:
    cube = _simulate_scene(args.scene)
    cube_io.write_cube(args.output, cube)
    print(
        f"wrote {args.output}: {cube.config.samples_per_chirp} samples x "
        f"{cube.config.chirps_per_frame} chirps x {cube.geometry.element_count} antennas"
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    # the noise estimate first, so that its full-map arrays never sit beside the sphere cube
    noise_power = calibration.estimate_noise_power(cube_io.read_cube(args.noise_cube))
    profile = pipeline.calibrate_from_cubes(
        cube_io.read_cube(args.sphere), cube_io.read_cube(args.plate), args.sphere_diameter,
        noise_power, (args.gate[0], args.gate[1]),
    )
    docio.write_document(args.output, profile.to_document())
    print(f"wrote {args.output}: plate_reflectivity={profile.plate_reflectivity:.6g}")
    return EXIT_OK


def cmd_extract(args) -> int:
    cube = cube_io.read_cube(args.cube)
    profile = _load_profile(args.profile)
    result = pipeline.extract_from_cube(cube, profile, (args.gate[0], args.gate[1]))
    docio.write_document(args.output, result.features.to_document())
    if args.debug:
        base = os.path.splitext(args.output)[0]
        full_rd = range_doppler(cube)
        full_ra = range_angle_at_doppler(full_rd, result.detection.doppler_bin)
        docio.write_document(f"{base}.rd_map.json", full_rd.to_document())
        docio.write_document(f"{base}.ra_map.json", full_ra.to_document())
        docio.write_document(f"{base}.synthesis.json", result.synthesis.to_document())
        docio.write_document(f"{base}.prca.json", result.region.to_document())
    print(
        f"wrote {args.output}: eps_r={result.features.dielectric_constant:.4g} "
        f"snr={result.features.snr_db:.1f} dB"
    )
    return EXIT_OK


def cmd_identify(args) -> int:
    features = EmFeatureVector.from_document(docio.read_document(args.features))
    store = _load_store(args.store)
    candidates = knowledge.match(features.dielectric_constant, store)
    docio.write_document(args.output, candidates.to_document())
    print(f"wrote {args.output}: top={candidates.top[0]}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    visual = VisualContext.from_document(docio.read_document(args.visual))
    radar = RadarContext.from_document(docio.read_document(args.radar))
    decision = decide(visual, radar)
    docio.write_document(args.output, decision.to_document())
    print(f"wrote {args.output}: {decision.material} ({decision.mode})")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cube = cube_io.read_cube(args.cube) if args.cube is not None else _simulate_scene(args.scene)
    profile = _load_profile(args.profile)
    store = _load_store(args.store)
    provider_cfg = vlm.ProviderConfig.from_document(docio.read_document(args.provider))

    extraction = pipeline.extract_from_cube(cube, profile, (args.gate[0], args.gate[1]))
    visual = vlm.propose(vlm.VisualQuery(image_ref=args.image), provider_cfg)
    outcome = pipeline.run_identification(extraction.features, visual, store)
    docio.write_document(args.output, outcome.to_document())
    if args.debug:
        base = os.path.splitext(args.output)[0]
        docio.write_document(f"{base}.features.json", extraction.features.to_document())
        docio.write_document(f"{base}.synthesis.json", extraction.synthesis.to_document())
        docio.write_document(f"{base}.prca.json", extraction.region.to_document())
    print(f"wrote {args.output}: {outcome.decision.material} ({outcome.decision.mode})")
    return EXIT_OK


def _add_gate(parser):
    parser.add_argument(
        "--gate", nargs=2, type=float, metavar=("LO_M", "HI_M"), required=True,
        help="range gate in meters",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radmat",
        description="FMCW radar material identification toolchain",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a radar cube from a scene document")
    p.add_argument("scene")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="build a calibration profile from sphere and plate cubes")
    p.add_argument("--sphere", required=True, help="metal sphere cube")
    p.add_argument("--plate", required=True, help="smooth metal plate cube")
    p.add_argument(
        "--sphere-diameter", type=float, required=True,
        help="meters; the sphere is the phase reference only at 5 wavelengths or more",
    )
    p.add_argument("--noise-cube", required=True, help="empty-scene cube for the noise floor")
    _add_gate(p)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("extract", help="radar cube -> electromagnetic feature record")
    p.add_argument("cube")
    p.add_argument("--profile", required=True)
    _add_gate(p)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--debug", action="store_true", help="also dump maps, synthesis, region")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("identify", help="feature record -> ranked material candidates")
    p.add_argument("features")
    p.add_argument("--store", default=None, help="material store (default: built-in)")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("fuse", help="visual + radar context documents -> decision")
    p.add_argument("--visual", required=True)
    p.add_argument("--radar", required=True)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("pipeline", help="full chain: extract, identify, propose, fuse")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--cube")
    source.add_argument("--scene")
    p.add_argument("--profile", required=True)
    p.add_argument("--store", default=None)
    p.add_argument("--provider", required=True, help="provider config document")
    p.add_argument("--image", required=True, help="image reference for the visual branch")
    _add_gate(p)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--debug", action="store_true")
    p.set_defaults(func=cmd_pipeline)

    return parser


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Have the interpreter freeze the garbage collector at exit, once per process.

    The heap at exit is mostly what the imports built, which lives until
    then anyway; frozen, the shutdown collections skip it.  A frozen cycle
    is never finalized, so every writer closes its file before `main`
    returns.
    """
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _, _ in _EXIT_BY_ERROR) as exc:
        for cls, code, label in _EXIT_BY_ERROR:
            if isinstance(exc, cls):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise  # unreachable


if __name__ == "__main__":
    sys.exit(main())
