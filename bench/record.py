#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``BENCH_<tag>.json``.

Usage, from the root of a checkout:

    python3 bench/record.py TAG [--checkout DIR]

Runs ``perfbench/run.py --trace 0`` of the measured checkout (this one by
default) once per workload, one after another, at seed 1 and the
``run_seconds`` of ``BENCHMARK.json``, and writes each run's machine line
and result line to ``BENCH_<TAG>.json`` at the root of this checkout.  The
file also records the measured commit, whether its sources differed from
that commit, and a sha256 of the measured ``src`` tree, which names the
tree even when it was not committed.  A DIR that is not a git checkout,
such as a ``git archive`` export, records both as null and hashes every
file under its ``src``.  A speed claim compares two such files
measured on the same machine; the run-to-run spread of a single file is not
known, so one pair of files shows a trend, not a gain.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ladder", "geometry", "pipeline")
SEED = 1
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tag", help="names the output file BENCH_<tag>.json")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="root of the checkout to measure (default: this one)")
    return ap.parse_args(argv)


def _git(checkout, *args):
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def is_checkout(checkout):
    """Whether ``checkout`` is the top of a git work tree."""
    top = _git(checkout, "rev-parse", "--show-toplevel")
    return top is not None and Path(top).resolve() == checkout


def src_sha256(checkout):
    """sha256 over the paths and bytes of the files under ``src``: those git
    sees in a git checkout, else every file outside ``__pycache__``."""
    if is_checkout(checkout):
        names = _git(checkout, "ls-files", "-co", "--exclude-standard", "src").split()
    else:
        names = [f.relative_to(checkout).as_posix() for f in (checkout / "src").rglob("*")
                 if f.is_file() and "__pycache__" not in f.parts]
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0" + (checkout / name).read_bytes() + b"\0")
    return h.hexdigest()


def run_workload(checkout, workload):
    """(machine line, result line) of one untraced benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
    machine, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(machine), json.loads(result)


def main(argv=None):
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    git = is_checkout(checkout)
    record = {
        "tag": args.tag,
        "commit": _git(checkout, "rev-parse", "HEAD") if git else None,
        "sources_modified": (bool(_git(checkout, "status", "--porcelain", "--", "src"))
                             if git else None),
        "src_sha256": src_sha256(checkout),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        machine, result = run_workload(checkout, workload)
        record["workloads"][workload] = {"machine": machine, "result": result}
        print(f"{workload}: correct={result['correct']} {json.dumps(result['metrics'])}",
              flush=True)
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
