#!/usr/bin/env python3
"""Benchmark for radmat: seeded `stream`, `cli` and `scene` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 15 --trace 0

Every workload is a closed loop with one caller that waits for each
answer before it sends the next frame.  `--trace 0` measures the
end-to-end metrics with no tracing; `--trace 1` alternates traced and
untraced ops and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A run
record (and, when traced, the spans) goes to `.perfbench_out/`.
See perfbench/README.md for the workloads, metrics and baseline.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

# BLAS and OpenMP threads are capped at the usable CPU count before numpy loads.
THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

if not (SRC / "radmat" / "__init__.py").is_file():
    sys.exit(f"perfbench: no radmat sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import radmat  # noqa: E402
from radmat import cli, cube_io, docio, knowledge, signal_model, spectral, vlm  # noqa: E402

import inputs  # noqa: E402
import ops  # noqa: E402
from tracer import Tracer, import_times_ms  # noqa: E402

WORKLOADS = ("stream", "cli", "scene")
SETUP_REPEATS = 5
TRACED_SETUP_REPEATS = 3
PROBE_REPEATS = 3
HARD_CAP_S = 120.0

# (metric, span) pairs: median per-op self time of calls into the function.
SPAN_METRICS = (
    ("spectral.range_doppler_ms", "spectral.range_doppler"),
    ("spectral.range_angle_ms", "spectral.range_angle"),
    ("spectral.detect_target_ms", "spectral.detect_target"),
    ("signal_model.synthesize_frame_ms", "signal_model.synthesize_frame"),
    ("calibration.estimate_noise_power_ms", "calibration.estimate_noise_power"),
    ("calibration.calibrate_sphere_ms", "calibration.calibrate_sphere"),
    ("calibration.calibrate_plate_ms", "calibration.calibrate_plate"),
    ("synthesis.focus_ms", "synthesis.focus"),
    ("synthesis.synthesize_ms", "synthesis.synthesize"),
    ("prca.compute_prca_ms", "prca.compute_prca"),
    ("dielectric.extract_features_ms", "dielectric.extract_features"),
    ("knowledge.default_store_ms", "knowledge.default_store"),
    ("knowledge.match_ms", "knowledge.match"),
    ("knowledge.prune_visual_ms", "knowledge.prune_visual"),
    ("fusion.decide_ms", "fusion.decide"),
    ("vlm.propose_ms", "vlm.propose"),
    ("cube_io.read_cube_ms", "cube_io.read_cube"),
    ("docio.read_document_ms", "docio.read_document"),
    ("docio.write_document_ms", "docio.write_document"),
    ("pipeline.extract_from_cube.self_ms", "pipeline.extract_from_cube"),
    ("pipeline.run_identification.self_ms", "pipeline.run_identification"),
    ("cli.main_ms", "cli.main"),
)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": int(THREADS),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_omp_thread_cap": int(THREADS),
        "commit": git_commit(),
        "seed": seed,
    }


# -- inputs and set-up ---------------------------------------------------------


class Run:
    """Inputs, set-up and results of one benchmark run."""

    def __init__(self, workload, seed, seconds, traced, small, work):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.small = small
        self.shape = inputs.SCENE_SHAPE if workload == "scene" else inputs.STREAM_SHAPE
        self.tracer = Tracer(inputs.GATE_M) if traced else None
        self.env = child_env()
        self.problems = []

    def _phase(self, op_id, fn):
        """Call fn() traced under op_id in a traced run, plainly otherwise.

        fn must look radmat functions up when called, after the wrappers
        are installed."""
        if self.tracer is None:
            return fn()
        self.tracer.op = op_id
        self.tracer.install()
        try:
            return fn()
        finally:
            self.tracer.uninstall()
            self.tracer.op = None

    def prepare(self):
        shape, work = self.shape, self.work
        config, geometry = shape.config, shape.geometry
        count = 6 if self.small else inputs.FRAMES
        self.frames = inputs.frames(self.workload, self.seed, count)
        self.fixture, disjoint = inputs.visual_fixture(self.frames, self.seed)
        self._phase("inputs-run-documents", self._write_documents)
        seeds = inputs.calibration_seeds(self.seed)
        self.calibration_cubes = {}
        for name, targets in inputs.calibration_targets(shape).items():
            self.calibration_cubes[name] = self._phase(
                f"inputs-run-{name}",
                lambda: self._simulate_and_store(targets, seeds[name], name),
            )
        lo, hi = shape.gate_bins
        self.scenes, self.cube_paths, self.pool, ra_off = {}, {}, {}, set()
        for frame in self.frames:
            targets = self.scenes[frame.index] = frame.targets
            op_id = f"inputs-frame-{frame.index}"
            if self.workload == "cli":
                name = f"frame_{frame.index:03d}"
                cube = self._phase(
                    op_id, lambda: self._simulate_and_store(targets, frame.noise_seed, name)
                )
                self.cube_paths[frame.index] = work / f"{name}.rcub"
            else:
                cube = self._phase(
                    op_id,
                    lambda: signal_model.synthesize_frame(
                        targets, config, geometry, inputs.NOISE_POWER_W, frame.noise_seed
                    ),
                )
                if self.workload == "stream":
                    self.pool[frame.index] = cube
            magnitudes = spectral.range_angle(cube).magnitudes
            peak_bin = int(np.unravel_index(int(np.argmax(magnitudes)), magnitudes.shape)[0])
            if not lo <= peak_bin <= hi:
                ra_off.add(frame.index)
        self.properties = inputs.properties(self.frames, shape, disjoint, ra_off)
        self.provider = vlm.ProviderConfig.from_document(
            docio.read_document(work / "provider.json")
        )

    def _write_documents(self):
        docio.write_document(self.work / "fixture.json", self.fixture)
        docio.write_document(
            self.work / "provider.json",
            {"mode": "mock", "fixture_path": str(self.work / "fixture.json")},
        )

    def _simulate_and_store(self, targets, noise_seed, name):
        """Simulate a cube, write it to NAME.rcub and read it back: the
        float32 samples that `radmat` processes read from files."""
        cube = signal_model.synthesize_frame(
            targets, self.shape.config, self.shape.geometry, inputs.NOISE_POWER_W, noise_seed
        )
        path = self.work / f"{name}.rcub"
        cube_io.write_cube(path, cube)
        return cube_io.read_cube(path)

    def set_up(self):
        """Returns the set-up times (seconds); fills store and profile."""
        repeats = 1 if self.small else SETUP_REPEATS
        self.store_names = knowledge.default_store().names
        if self.workload == "cli":
            return self._set_up_cli(repeats)
        self.store, self.profile = ops.set_up(self.calibration_cubes)
        reference = self.profile.to_document()
        if self.tracer is not None:
            for r in range(1 if self.small else TRACED_SETUP_REPEATS):
                self._phase(f"setup-{r}", lambda: ops.set_up(self.calibration_cubes))
            return []
        times = []
        for _ in range(repeats):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(self.work)],
                env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
            )
            child = json.loads(proc.stdout.strip().splitlines()[-1])
            if child["profile"] != reference:
                self.problems.append("set-up in a fresh process gave another profile")
            times.append(child["setup_s"])
        return times

    def _set_up_cli(self, repeats):
        argv = ops.calibrate_argv(self.work)
        profile_path = self.work / "profile.json"
        if self.tracer is not None:
            for r in range(1 if self.small else TRACED_SETUP_REPEATS):
                with redirect_stdout(io.StringIO()):
                    code = self._phase(f"setup-{r}", lambda: cli.main(argv))
                if code != 0:
                    self.problems.append(f"radmat calibrate exited {code}")
            return []
        times, reference = [], None
        for _ in range(repeats):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", ops.CLI_SHIM, *argv],
                env=self.env, cwd=self.work, capture_output=True, timeout=60,
            )
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                self.problems.append(f"radmat calibrate exited {proc.returncode}")
                continue
            data = profile_path.read_bytes()
            if reference is None:
                reference = data
            elif data != reference:
                self.problems.append("radmat calibrate is not byte-stable")
        return times

    # -- the timed loop -----------------------------------------------------

    def operation(self):
        """(op, to_bytes) for this workload and mode."""
        if self.workload == "stream":
            op = ops.stream_op(self.pool, self.profile, self.provider, self.store)
        elif self.workload == "scene":
            op = ops.scene_op(self.shape, self.scenes, self.profile, self.provider, self.store)
        elif self.tracer is None:
            op = ops.cli_subprocess_op(self.work, self.cube_paths, self.env)
        else:
            op = ops.cli_inprocess_op(self.work, self.cube_paths)
        if self.workload == "cli":
            return op, lambda frame, code: ops.cli_result_bytes(self.work, frame, code)
        return op, lambda frame, outcome: ops.outcome_bytes(outcome)

    def loop(self):
        op, to_bytes = self.operation()
        frames, tracer = self.frames, self.tracer
        n = len(frames)
        try:  # warm-up: caches, lazy imports, file cache
            to_bytes(frames[0], op(frames[0]))
        except ops.OP_ERRORS:
            pass
        self.untraced, self.traced, self.traced_ops = [], [], []
        self.first, self.failures, self.mismatches = {}, [], 0
        covered = set()
        k = 0
        start = time.perf_counter()
        deadline = start + self.seconds
        while True:
            now = time.perf_counter()
            if now >= deadline and len(covered) == n:
                break
            if now - start > HARD_CAP_S:
                self.problems.append(f"only {len(covered)} of {n} frames ran within {HARD_CAP_S} s")
                break
            frame = frames[k % n]
            # traced and untraced ops alternate; the pattern shifts every pass
            # so that each frame is traced once every two passes
            is_traced = tracer is not None and (k + k // n) % 2 == 0
            if is_traced:
                tracer.op = k
                tracer.install()
            error = None
            t0 = time.perf_counter()
            try:
                result = op(frame)
            except ops.OP_ERRORS as exc:
                error = exc
            t1 = time.perf_counter()
            if is_traced:
                tracer.uninstall()
                tracer.op = None
                self.traced_ops.append(k)
            (self.traced if is_traced else self.untraced).append(t1 - t0)
            covered.add(frame.index)
            k += 1
            if error is None:
                try:
                    raw = to_bytes(frame, result)
                except ops.OP_ERRORS as exc:
                    error = exc
            if error is not None:
                self.failures.append((frame.index, repr(error)))
                continue
            problems = ops.check_decision(raw, self.store_names, self.fixture[frame.image_ref])
            if problems:
                self.failures.append((frame.index, "; ".join(problems)))
            elif frame.index not in self.first:
                self.first[frame.index] = raw
            elif self.first[frame.index] != raw:
                self.mismatches += 1
        self.wall = time.perf_counter() - start
        self.attempted = k

    # -- results --------------------------------------------------------------

    def quality(self):
        """Top-1 accuracy, median relative eps error and decision digest.

        A frame with no valid decision counts as a miss with a 100 % error."""
        hits, errors = 0, []
        for frame in self.frames:
            raw = self.first.get(frame.index)
            if raw is None:
                errors.append(1.0)
                continue
            top, eps = ops.radar_reading(raw)
            hits += top == frame.material
            errors.append(abs(eps - frame.epsilon) / frame.epsilon)
        digest = hashlib.sha256(b"".join(self.first[i] for i in sorted(self.first))).hexdigest()
        return hits / len(self.frames), statistics.median(errors), digest

    def correct(self):
        return (
            not self.failures
            and not self.mismatches
            and not self.problems
            and len(self.first) == len(self.frames)
        )


def end_to_end(run, setup_times):
    lat = np.array(run.untraced) * 1000.0
    p90 = float(np.percentile(lat, 90))
    acc, eps_err, digest = run.quality()
    who = resource.RUSAGE_CHILDREN if run.workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "latency_p50_ms": (float(np.median(lat)), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "frames_per_s": (len(lat) / run.wall, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "radar_top1_acc": (acc, "ratio"),
        "eps_err_p50": (eps_err, "ratio"),
    }
    notes = {
        "latency_samples": len(lat),
        "latency_p90_beyond": int((lat > p90).sum()),
        "setup_samples": [round(t, 6) for t in setup_times],
        "error_rate": len(run.failures) / run.attempted,
        "digest": digest,
    }
    return metrics, notes


def per_layer(run):
    tracer = run.tracer
    selfs, facts = tracer.self_times(), tracer.facts
    op_keys = run.traced_ops

    def keys_with(prefix):
        return [k for k in selfs if isinstance(k, str) and k.startswith(prefix)]

    # A function off the op path is measured where the workload calls it.
    phases = (
        ("op", op_keys),
        ("setup", keys_with("setup-")),
        ("inputs", keys_with("inputs-frame-")),
        ("run inputs", keys_with("inputs-run-")),
    )
    metrics, where = {}, {}

    def first_phase(metric, unit, values_for, scale=1.0):
        value, label = 0.0, "not called"
        for phase, keys in phases:
            values = values_for(keys)
            if values:
                value, label = statistics.median(values) * scale, phase
                break
        metrics[metric], where[metric] = (value, unit), label

    for metric, span in SPAN_METRICS:
        first_phase(
            metric, "ms", lambda keys: [selfs[k][span] for k in keys if span in selfs[k]], 1000.0
        )
    for metric in ("cube_io.bytes_read", "docio.bytes_written"):
        first_phase(metric, "B", lambda keys: [facts[k][metric] for k in keys if facts[k].get(metric)])
    first_phase(
        "signal_model.targets", "count",
        lambda keys: [
            facts[k]["signal_model.targets"] / facts[k]["signal_model.calls"]
            for k in keys
            if facts[k].get("signal_model.calls")
        ],
    )

    def per_op(fact):
        return statistics.median(facts[k].get(fact, 0.0) for k in op_keys)

    def share(numerator, denominator):
        calls = sum(facts[k].get(denominator, 0.0) for k in op_keys)
        return sum(facts[k].get(numerator, 0.0) for k in op_keys) / calls if calls else 0.0

    metrics.update(
        {
            "spectral.fft_calls": (per_op("spectral.fft_calls"), "count"),
            "spectral.fft_points": (per_op("spectral.fft_points"), "count"),
            "spectral.no_target": (sum(facts[k].get("spectral.no_target", 0.0) for k in op_keys), "count"),
            "prca.cells": (per_op("prca.cells"), "count"),
            "prca.off_target_frac": (share("prca.off_target", "prca.calls"), "ratio"),
            "dielectric.clamped_frac": (share("dielectric.clamped", "dielectric.calls"), "ratio"),
            "fusion.conflict_frac": (share("fusion.conflict", "fusion.calls"), "ratio"),
        }
    )

    repeats = 1 if run.small else PROBE_REPEATS
    imports = import_times_ms(run.env, ROOT, repeats)
    interpreter = interpreter_ms(run.env, repeats)
    metrics["vlm.import_ms"] = (imports["vlm"], "ms")
    metrics["cli.import_ms"] = (imports["cli"], "ms")
    metrics["cli.interpreter_ms"] = (interpreter, "ms")
    traced_p50 = statistics.median(run.traced) * 1000.0
    untraced_p50 = statistics.median(run.untraced) * 1000.0
    metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")

    # Share of op time by module.  A CLI op also starts an interpreter and
    # imports radmat, which the in-process ops do not show.
    op_ms = traced_p50
    startup = {}
    if run.workload == "cli":
        op_ms = interpreter + imports["cli"] + traced_p50
        startup = {"interpreter": interpreter / op_ms, "import": imports["cli"] / op_ms}
    shares = {
        **startup,
        **{
            layer: value * traced_p50 / op_ms
            for layer, value in layer_shares(selfs, op_keys, run.traced).items()
        },
    }
    notes = {
        "where": where,
        "op_ms": op_ms,
        "traced_ops": len(run.traced),
        "untraced_ops": len(run.untraced),
        "traced_latency_p50_ms": traced_p50,
        "untraced_latency_p50_ms": untraced_p50,
        "layer_self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "error_rate": len(run.failures) / run.attempted,
        "digest": run.quality()[2],
    }
    return metrics, notes


def layer_shares(selfs, op_keys, traced_latencies):
    """Share of traced op time spent in each module's own code."""
    total = sum(traced_latencies)
    sums = {}
    for k in op_keys:
        for span, seconds in selfs[k].items():
            layer = span.split(".", 1)[0]
            sums[layer] = sums.get(layer, 0.0) + seconds
    shares = {layer: s / total for layer, s in sums.items()}
    shares["harness"] = 1.0 - sum(shares.values())
    return shares


def interpreter_ms(env, repeats) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def report(run, metrics, notes, traced):
    print(
        f"radmat benchmark  workload={run.workload} seed={run.seed} trace={int(traced)} "
        f"frames={len(run.frames)} ops={run.attempted} threads={THREADS}"
    )
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "latency_p90_ms":
            extra = (
                f"  ({notes['latency_p90_beyond']} of {notes['latency_samples']} samples beyond"
                + ("; fewer than 10, indicative only)" if notes["latency_p90_beyond"] < 10 else ")")
            )
        elif name in notes.get("where", {}):
            extra = f"  [{notes['where'][name]}]"
            if notes["where"][name] == "op" and unit == "ms":
                extra += f"  {value / notes['op_ms']:.1%} of an op"
        print(f"  {name:40s} {value:14.6g} {unit}{extra}")
    print(f"  {'error_rate':40s} {notes['error_rate']:14.6g} ratio  ({len(run.failures)} of {run.attempted} ops)")
    for key, value in run.properties.items():
        print(f"  input share {key:28s} {value:.3f}")
    if "layer_self_share" in notes:
        for layer, value in notes["layer_self_share"].items():
            print(f"  self-time share {layer:24s} {value:.3f}")
    print(f"  decision digest sha256:{notes['digest']}")
    for index, reason in run.failures[:5]:
        print(f"  failed frame {index}: {reason}")
    for problem in run.problems:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="six frames, one set-up (smoke test)")
    args = parser.parse_args(argv)
    if not Path(radmat.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: radmat was imported from {radmat.__file__}, not {SRC}")

    traced = bool(args.trace)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, traced, args.small, work)
        run.prepare()
        setup_times = run.set_up()
        run.loop()
        if traced:
            metrics, notes = per_layer(run)
        else:
            metrics, notes = end_to_end(run, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    reported = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        run.tracer.write(OUT / f"{stem}.spans.jsonl")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "input_shares": run.properties,
        "metrics": reported,
        "notes": notes,
        "failures": run.failures[:20],
        "problems": run.problems,
        "determinism_mismatches": run.mismatches,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    report(run, metrics, notes, traced)
    result = {
        "correct": run.correct(),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
