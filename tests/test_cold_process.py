"""`radmat` in a fresh process, the way a shell runs it once per frame.

`calibrate` and a mock-provider `pipeline` import neither `numpy.ma` nor
the HTTP client, `main` registers one exit hook however often it runs,
and a process writes the same bytes as a `main` call in this one.
`import radmat` leaves out the visual branch; `radmat.cli` brings it in,
but the HTTP client loads only at the first HTTP request.  Only a fresh
process can show that the deferred import works: this one has loaded
`http.server`, and with it `http.client`, for conftest's provider endpoint.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from radmat.cli import EXIT_IO, EXIT_OK, main
from radmat.cube_io import write_cube
from radmat.docio import write_document
from conftest import child_env, make_plate, make_sphere

VLM_FIXTURES = Path(__file__).parent / "data" / "vlm_fixtures.json"
# the standard library's HTTP client and the TLS and e-mail modules it loads
HTTP_MODULES = ("urllib.request", "http.client", "ssl", "email.parser")
# `radmat` as its console script runs it, then whether `numpy.ma` was
# imported and which of `HTTP_MODULES` were
SHIM = (
    "import json, sys; from radmat.cli import main; code = main(); "
    f"http = [name for name in {HTTP_MODULES!r} if name in sys.modules]; "
    "print(json.dumps(['numpy.ma' in sys.modules, http])); sys.exit(code)"
)
# the exit callbacks before and after `import radmat`, after two `main`
# calls, and whether running the callbacks froze the collector
HOOK_PROBE = """
import atexit, gc, json
before = atexit._ncallbacks()
import radmat, radmat.cli
imported = atexit._ncallbacks()
argv = ["simulate", "missing.json", "-o", "x.rcub"]
codes = [radmat.cli.main(argv), radmat.cli.main(argv)]
registered = atexit._ncallbacks()
unfrozen = gc.get_freeze_count() == 0
atexit._run_exitfuncs()
print(json.dumps([before, imported, registered, codes, unfrozen, gc.get_freeze_count() > 0]))
"""

# which of the visual branch's modules `import radmat` loaded, then which
# `import radmat.cli` loaded
VISUAL_MODULES = ("radmat.vlm", *HTTP_MODULES)
BOUNDARY_PROBE = f"""
import json, sys
import radmat
root = [name for name in {VISUAL_MODULES!r} if name in sys.modules]
import radmat.cli
print(json.dumps([root, [name for name in {VISUAL_MODULES!r} if name in sys.modules]]))
"""


def _run(code, *args, cwd):
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=120,
    )


def _calibrate_argv(work, output):
    return [
        "calibrate", "--sphere", str(work / "sphere.rcub"), "--plate", str(work / "plate.rcub"),
        "--noise-cube", str(work / "empty.rcub"), "--sphere-diameter", "0.063",
        "--gate", "0.1", "0.6", "-o", str(output),
    ]


def _pipeline_argv(work, output, provider="provider.json", image="a5_cup"):
    return [
        "pipeline", "--cube", str(work / "frame.rcub"), "--profile", str(work / "profile.json"),
        "--provider", str(work / provider), "--image", image,
        "--gate", "0.1", "0.6", "-o", str(output),
    ]


@pytest.fixture(scope="module")
def work(tmp_path_factory, fixture_position, frame_factory):
    """Calibration cubes, one frame, a provider and an in-process profile."""
    work = tmp_path_factory.mktemp("cold")
    write_cube(work / "sphere.rcub", frame_factory([make_sphere(fixture_position)], seed=11))
    write_cube(work / "plate.rcub", frame_factory([make_plate(fixture_position, 1e6)], seed=12))
    write_cube(work / "empty.rcub", frame_factory([], seed=99))
    write_cube(work / "frame.rcub", frame_factory([make_plate(fixture_position, 2.87)], seed=21))
    write_document(work / "provider.json", {"mode": "mock", "fixture_path": str(VLM_FIXTURES)})
    assert main(_calibrate_argv(work, work / "profile.json")) == EXIT_OK
    return work


def _shim_report(run):
    """Whether the shim's process imported `numpy.ma`, and which `HTTP_MODULES`."""
    assert run.returncode == EXIT_OK, run.stderr[-3000:]
    return json.loads(run.stdout.splitlines()[-1])


def test_calibrate_process_skips_numpy_ma(work):
    run = _run(SHIM, *_calibrate_argv(work, work / "profile.cold.json"), cwd=work)
    assert _shim_report(run) == [False, []]
    assert (work / "profile.cold.json").read_bytes() == (work / "profile.json").read_bytes()


def test_pipeline_process_skips_numpy_ma(work):
    run = _run(SHIM, *_pipeline_argv(work, work / "decision.cold.json"), cwd=work)
    assert _shim_report(run) == [False, []]
    assert main(_pipeline_argv(work, work / "decision.json")) == EXIT_OK
    assert (work / "decision.cold.json").read_bytes() == (work / "decision.json").read_bytes()


def test_http_pipeline_process_loads_the_client(work, http_server):
    image = work / "object.png"
    image.write_bytes(b"\x89PNG fake image bytes")
    write_document(work / "http.json", {"mode": "http", "endpoint_url": http_server})
    cold, warm = work / "decision.http.cold.json", work / "decision.http.json"
    run = _run(SHIM, *_pipeline_argv(work, cold, "http.json", str(image)), cwd=work)
    assert _shim_report(run) == [False, list(HTTP_MODULES)]
    assert main(_pipeline_argv(work, warm, "http.json", str(image))) == EXIT_OK
    assert cold.read_bytes() == warm.read_bytes()


def test_main_registers_one_exit_hook(tmp_path):
    run = _run(HOOK_PROBE, cwd=tmp_path)
    assert run.returncode == 0, run.stderr[-3000:]
    before, imported, registered, codes, unfrozen, frozen = json.loads(run.stdout)
    assert imported == before  # `import radmat` registers nothing
    assert registered == before + 1
    assert codes == [EXIT_IO, EXIT_IO]
    assert unfrozen and frozen


def test_package_root_leaves_out_the_visual_branch(tmp_path):
    run = _run(BOUNDARY_PROBE, cwd=tmp_path)
    assert run.returncode == 0, run.stderr[-3000:]
    root, cli = json.loads(run.stdout)
    assert root == []
    assert cli == ["radmat.vlm"]
