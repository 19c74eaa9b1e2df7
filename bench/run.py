#!/usr/bin/env python3
"""Stage-level benchmark of the macroplan pipeline.

    python3 bench/run.py --workload decode-rich --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each run starts one child process
(``child.py``) with the checkout's ``src`` on its path, a fixed BLAS thread
count and ``MACROPLAN_THREADS`` unset.  The child runs ``synth`` as set-up,
then whole rounds of the later stages until ``--seconds`` have passed, and
checks every round's outputs.  This process reads the child's peak resident
set from ``os.wait4``, so it covers the program alone.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (stages; a stage fails when it exits non-zero or
its output check fails) and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  Lines before it
give the environment and the sha256 of each checked artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import COUNTS, traced_names  # noqa: E402
from workloads import ROUND_STAGES, WORKLOADS  # noqa: E402

#: a run is stopped if its child has not ended by then
CHILD_TIMEOUT_S = 170.0
#: BLAS threads: one, so that small matrix products time steadily
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    for stage in ROUND_STAGES:
        units[f"stage.{stage}.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MACROPLAN_THREADS", None)
    for var in BLAS_VARS:
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def wait_child(proc: subprocess.Popen, deadline: float):
    """(exit code, peak RSS in MB) of ``proc``; kill it at ``deadline``."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                raise TimeoutError
            time.sleep(0.02)
    except BaseException:
        proc.send_signal(signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        if not isinstance(sys.exc_info()[1], TimeoutError):
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return proc.returncode, usage.ru_maxrss / 1024.0


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "macroplan" / "cli.py").is_file():
        print(f"error: no macroplan sources under {ROOT / 'src'}; run from "
              f"a source checkout", file=sys.stderr)
        return 2

    # a terminated run still stops and reaps its child (see wait_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = BENCH / "out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    with open(workdir / "child.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir)],
            stdout=log, stderr=subprocess.STDOUT, env=child_env(),
            cwd=workdir)
        code, peak_rss_mb = wait_child(proc, start + CHILD_TIMEOUT_S)
    result_path = workdir / "result.json"
    if code != 0 or not result_path.exists():
        tail = (workdir / "child.log").read_text(errors="replace")[-2000:]
        print(f"error: benchmark child exited with status {code}\n{tail}",
              file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    # perf_counter is CLOCK_MONOTONIC on Linux: one clock for both processes
    result["metrics"]["setup_s"] = result["setup_end"] - start
    result["metrics"]["peak_rss_mb"] = peak_rss_mb

    print(json.dumps({"environment": environment(),
                      "workload": args.workload, "seed": args.seed,
                      "rounds": result["rounds"]}, sort_keys=True))
    for name, digest in sorted(result["hashes"].items()):
        print(f"sha256 {digest}  {name}")
    for error in result["errors"]:
        print(f"check failed: {error}")
    if args.trace:
        units, values = layer_units(), result["layers"]
    else:
        units, values = END_TO_END, result["metrics"]
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
