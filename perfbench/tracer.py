"""Spans around the calls into each radmat module, recorded from outside.

Every public function of every `radmat` module is wrapped at each name a
caller resolves it through: the defining module's own attribute (which
lazy `from .x import y` imports and the benchmark use) and every other
module's global that is bound to it (e.g. `radmat.pipeline.range_doppler`,
`radmat.cli.cube_io.read_cube`).  A call records a span only when it
crosses a module boundary, so a module's self time includes its own
helpers.  `numpy.fft` transforms are counted, not spanned, so their time
stays in the calling layer.

Spans are kept in memory as (name, start, end, parent, op) and written
out when the run ends.
"""

import functools
import json
import math
import os
import re
import subprocess
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


class Tracer:
    def __init__(self, gate_m):
        self.gate_m = gate_m
        self.spans = []  # [name, start, end, parent, op]
        self.stack = []  # indices into spans
        self.op = None
        self.facts = defaultdict(lambda: defaultdict(float))  # op -> fact -> value
        self._patches = self._plan()

    # -- installation -------------------------------------------------------

    def _plan(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == "radmat" or name.startswith("radmat.")) and mod is not None
        }
        wrappers = {}
        for name, mod in modules.items():
            if name == "radmat":
                continue
            layer = name.split(".", 1)[1]
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == name
                    and not attr.startswith("_")
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", layer, value))
        patches = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((mod, attr, value, entry[1]))
        for attr in FFT_FUNCTIONS:
            original = getattr(np.fft, attr, None)
            if original is not None:
                patches.append((np.fft, attr, original, self._count_fft(original)))
        return patches

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    # -- recording ----------------------------------------------------------

    def _layer_of_top(self):
        return self.spans[self.stack[-1]][0].split(".", 1)[0] if self.stack else None

    def _wrap(self, name, layer, fn):
        tracer = self
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._layer_of_top() == layer:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            span = [name, clock(), None, parent, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                tracer.stack.pop()
                tracer._observe_error(name, exc)
                raise
            span[2] = clock()
            tracer.stack.pop()
            tracer._observe(name, args, result)
            return result

        return traced

    def _count_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            facts = tracer.facts[tracer.op]
            layer = tracer._layer_of_top() or "bench"
            facts[f"{layer}.fft_calls"] += 1
            facts[f"{layer}.fft_points"] += out.size
            return out

        return counted

    def _observe_error(self, name, exc):
        if name == "spectral.detect_target" and type(exc).__name__ == "NoTargetError":
            self.facts[self.op]["spectral.no_target"] += 1

    def _observe(self, name, args, result):
        """Counts taken at the boundary from arguments and return values."""
        facts = self.facts[self.op]
        if name == "signal_model.synthesize_frame":
            facts["signal_model.targets"] += len(args[0])
            facts["signal_model.calls"] += 1
        elif name == "prca.compute_prca":
            bin_m = args[0].range_bin_m
            lo, hi = math.ceil(self.gate_m[0] / bin_m), math.floor(self.gate_m[1] / bin_m)
            facts["prca.cells"] += len(result.cell_indices)
            facts["prca.off_target"] += not lo <= result.peak_index[0] <= hi
            facts["prca.calls"] += 1
        elif name == "dielectric.extract_features":
            ceiling = getattr(sys.modules["radmat.dielectric"], "R_P_CEILING", 1.0 - 1e-9)
            facts["dielectric.clamped"] += result.fresnel_coefficient >= ceiling
            facts["dielectric.calls"] += 1
        elif name == "fusion.decide":
            facts["fusion.conflict"] += result.mode == "conflict"
            facts["fusion.calls"] += 1
        elif name == "cube_io.read_cube":
            facts["cube_io.bytes_read"] += os.path.getsize(args[0])
        elif name == "docio.write_document":
            facts["docio.bytes_written"] += os.path.getsize(args[0])

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """{op: {span name: self seconds summed over the op}}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[op][name] += (end - start) - child_time[i]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times_ms(env, cwd, repeats):
    """Median `import radmat.cli` breakdown from `python -X importtime`.

    Returns {"cli": whole import, "vlm": cumulative radmat.vlm import}.
    """
    cli_ms, vlm_ms = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import radmat.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
        )
        total = vlm = 0
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if not m:
                continue
            cumulative, indent, module = int(m.group(2)), len(m.group(3)), m.group(4)
            if indent == 1 and (module == "radmat" or module.startswith("radmat.")):
                total += cumulative
            if module == "radmat.vlm":
                vlm = cumulative
        cli_ms.append(total / 1000.0)
        vlm_ms.append(vlm / 1000.0)
    return {"cli": float(np.median(cli_ms)), "vlm": float(np.median(vlm_ms))}
