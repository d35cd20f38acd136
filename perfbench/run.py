#!/usr/bin/env python3
"""Benchmark of the hyperzeros package: time to certified zeros and its layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ladder,geometry,pipeline} \
        --seed N --seconds S --trace {0,1}

One process, one operation at a time.  After set-up, the workload's fixed
pass repeats while another pass fits in ``--seconds`` (at least once).  With
``--trace 0`` every pass is untimed by spans and the last stdout line holds
the end-to-end metrics; with ``--trace 1`` passes alternate untraced and
traced, and the last line holds the per-layer metrics, each layer's self
time and the tracing overhead (traced minus untraced pass time).  The line
before it records the machine, the calibration loop, sample counts and any
failures.  The traced run also writes its spans to ``.bench_out/``.

Exit code 0 when the run completed (failed operations are reported in the
result, not by the exit code); 2 when the package sources are missing.
"""

import time

STARTED = time.perf_counter()

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"
OUT_ROOT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
LAYERS = ("bench", "hyppoly", "rootfinding", "algcurve", "potential", "experiments",
          "serialize", "cli")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ladder", "geometry", "pipeline"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_package():
    """Import hyperzeros from this checkout's sources, or exit with code 2."""
    if not (SRC / "hyperzeros" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hyperzeros

    if Path(hyperzeros.__file__).resolve().parent != SRC / "hyperzeros":
        print(f"error: imported hyperzeros from {hyperzeros.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def make_workload(args, run_dir):
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Pipeline:
        import hyperzeros.cli  # noqa: F401  (the cold import every command pays)

        return cls(args.seed, run_dir, SRC)
    return cls(args.seed)


def setup_probe(args):
    """Set-up time of one fresh interpreter running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run(args):
    load_package()
    import workloads

    run_dir = RUN_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        wl = make_workload(args, run_dir)
        setup_s = time.perf_counter() - STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_samples = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

        tracer = harness.Tracer(False)
        runner = harness.Runner(tracer, STARTED)
        calibration = [harness.calibration_loop()]
        passes = measure(args, wl, runner, tracer, run_dir)
        calibration.append(harness.calibration_loop())

        if args.trace == 0:
            metrics, sample_counts = end_to_end(args, wl, passes, setup_samples)
        else:
            metrics, sample_counts = per_layer(args, wl, passes, setup_samples, tracer,
                                               calibration, workloads.WORKLOADS)
            write_spans(args, tracer)
        info = {
            "machine": harness.machine_facts(),
            "calibration_s": calibration,
            "samples": sample_counts,
            "pass_walls": [p["wall"] for p in passes],
            "failed_frac": len(runner.failures) / max(runner.attempted, 1),
            "failures": runner.failures,
        }
        for failure in runner.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        print(json.dumps(info, sort_keys=True))
        print(json.dumps({
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass


def measure(args, wl, runner, tracer, run_dir):
    """Repeat the workload's pass within ``--seconds``; traced passes alternate with untraced.

    A pass starts only when the median pass so far fits in the time left, so
    a run measures about ``--seconds`` however long a pass takes.  A traced
    run makes at least one untraced and one traced pass.
    """
    passes = []
    first = None
    measure_start = time.perf_counter()
    while True:
        k = len(passes)
        traced = args.trace == 1 and k % 2 == 1
        if k:
            typical = harness.median([p["elapsed"] for p in passes])
            fits = time.perf_counter() - measure_start + typical <= args.seconds
            if not fits and (args.trace == 0 or k >= 2):
                break
            if runner.remaining() < 1.5 * typical:
                break
        tracer.enabled = traced
        tracer.pass_id = k
        runner.samples = {}
        start = time.perf_counter()
        with tracer.span("pass", "bench"):
            counts, fingerprint = wl.run_pass(runner)
        wall = time.perf_counter() - start
        tracer.enabled = False
        counts.update(wl.check_outputs(runner, k + 1))
        if traced:
            tracer.enabled = True
            tracer.pass_id = f"{k}.extra"
            wl.traced_extras(runner, run_dir)
            tracer.enabled = False
        if first is None:
            first = (counts, fingerprint)
        else:
            runner.check("determinism", (counts, fingerprint) == first,
                         f"pass {k + 1} exact counts or results differ from the first pass")
        # ``elapsed`` adds the pass's gates and traced extras to its wall time
        passes.append({"traced": traced, "wall": wall, "elapsed": time.perf_counter() - start,
                       "samples": runner.samples, "counts": counts, "ids": {k, f"{k}.extra"}})
    return passes


def _value(v, unit):
    return {"value": v, "unit": unit}


def _times(p, name):
    """Seconds of each call in pass ``p`` whose operation is ``name`` or ``name.*``."""
    return [t for op, times in p["samples"].items()
            if op == name or op.startswith(name + ".") for t in times]


def end_to_end(args, wl, passes, setup_samples):
    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall"] for p in untraced]
    tops = [sum(sum(_times(p, name)) for name in wl.top_ops) for p in untraced]
    metrics = {
        "wall_s": _value(harness.median(walls), "s"),
        "setup_s": _value(harness.median(setup_samples), "s"),
        "top_solve_s": _value(harness.median(tops), "s"),
        "peak_rss_mb": _value(harness.peak_rss_mb(include_children=args.workload == "pipeline"),
                              "MiB"),
    }
    sample_counts = {"wall_s": len(walls), "setup_s": len(setup_samples),
                     "top_solve_s": len(tops), "peak_rss_mb": 1}
    return metrics, sample_counts


def per_layer(args, wl, passes, setup_samples, tracer, calibration, all_workloads):
    """Every workload's per-layer metrics; those of other workloads read 0."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics = {}
    sample_counts = {}
    for cls in all_workloads.values():
        own = isinstance(wl, cls)
        for name, unit, kind in cls.metric_specs():
            vals = []
            if own and kind == "sum":
                vals = [sum(_times(p, name)) for p in traced]
            elif own and kind == "per_call":
                vals = [t for p in traced for t in _times(p, name)]
            elif own and kind == "count":
                vals = [traced[0]["counts"].get(name, 0)]
            metrics[name] = _value(harness.median(vals) if vals else 0, unit)
            sample_counts[name] = len(vals)
    import_samples = setup_samples if args.workload == "pipeline" else []
    metrics["cli.import_s"] = _value(harness.median(import_samples) if import_samples else 0.0, "s")
    sample_counts["cli.import_s"] = len(import_samples)
    for layer in LAYERS:
        vals = [tracer.self_times(p["ids"]).get(layer, 0.0) for p in traced]
        metrics[f"{layer}.self_s"] = _value(harness.median(vals), "s")
        sample_counts[f"{layer}.self_s"] = len(vals)
    overhead = (harness.median([p["wall"] for p in traced])
                - harness.median([p["wall"] for p in untraced]))
    metrics["trace.overhead_s"] = _value(overhead, "s")
    sample_counts["trace.overhead_s"] = len(passes)
    metrics["host.calibration_start_s"] = _value(calibration[0], "s")
    metrics["host.calibration_end_s"] = _value(calibration[1], "s")
    return metrics, sample_counts


def write_spans(args, tracer):
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(tracer.spans, default=str) + "\n")


def main(argv=None):
    return run(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
