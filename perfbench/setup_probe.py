"""Time one in-process set-up from a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORK_DIR

Times `import radmat`, then loads the calibration cubes that run.py wrote
to WORK_DIR (untimed), then times the default store, the noise estimate
and the sphere and plate calibration.  Prints one JSON line with the
set-up time and the profile it produced.
"""

import json
import sys
import time
from pathlib import Path

_start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import radmat  # noqa: E402,F401  (the import is part of the set-up time)

import_s = time.perf_counter() - _start

from radmat import cube_io  # noqa: E402

import ops  # noqa: E402


def main(work: Path) -> None:
    cubes = {name: cube_io.read_cube(work / f"{name}.rcub") for name in ("empty", "sphere", "plate")}
    start = time.perf_counter()
    _, profile = ops.set_up(cubes)
    chain_s = time.perf_counter() - start
    print(
        json.dumps(
            {"setup_s": import_s + chain_s, "import_s": import_s, "profile": profile.to_document()}
        )
    )


if __name__ == "__main__":
    main(Path(sys.argv[1]))
