"""Benchmark runner for the ventcelfem command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve_cable --seed 1 --seconds 30 --trace 0

Runs one workload of ``workloads.WORKLOADS`` as a closed loop with one
caller: each command runs in a fresh child interpreter that imports the
package from ``src/``, one child at a time, with BLAS single-threaded.
Every command's output is checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine, the seed and the
raw samples.

With ``--trace 0`` the metrics are the end-to-end ones (median command
wall time, median import time, median peak resident memory).  With
``--trace 1`` every other command is traced from outside (see
``tracing.py``) and the metrics are per-layer self times and counts per
traced command, plus the tracing overhead against the untraced
commands of the same run.

Inputs and artifacts go to a temporary directory under
``.perfbench_work/`` in the checkout, removed at the end of the run.
Exits 2 without a result when the package or a set-up step is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
from workloads import WORKLOADS, read_mesh_nodes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

BLAS_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_SAMPLES = 5        # import-only children per untraced run
MIN_COMMANDS = 3         # untraced run
MIN_TRACED_COMMANDS = 4  # traced run: alternately traced and untraced
CHILD_TIMEOUT_S = 100


class SetupError(Exception):
    """The program or an input could not be prepared; no result is printed."""


def run_child(work, argv=(), trace=False):
    """Run child.py once; returns (exit code, stdout, stderr, result or None)."""
    fd, result_path = tempfile.mkstemp(suffix=".json", dir=work)
    os.close(fd)
    env = dict(os.environ, **BLAS_THREADS)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, SRC, result_path, "1" if trace else "0",
             *argv],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        try:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = None
    finally:
        os.remove(result_path)
    return proc.returncode, proc.stdout, proc.stderr, result


def import_sample(work) -> dict:
    code, _, err, result = run_child(work)
    if code != 0 or result is None:
        raise SetupError(f"cannot import ventcelfem.cli from {SRC}:\n{err}")
    return result


def prepare_argv(workload, seed, work) -> list:
    nodes = None
    if workload.mesh_argv is not None:
        mesh_dir = os.path.join(work, "mesh")
        code, _, err, _ = run_child(work, [*workload.mesh_argv,
                                           "--output-dir", mesh_dir])
        if code != 0:
            raise SetupError(f"mesh command failed:\n{err}")
        nodes = read_mesh_nodes(os.path.join(mesh_dir, "mesh.txt"))
        shutil.rmtree(mesh_dir)
    return workload.command(seed, work, nodes)


def run_commands(workload, argv, seconds, trace, work) -> list:
    """Closed loop until the next command would overrun ``seconds``."""
    records = []
    minimum = MIN_TRACED_COMMANDS if trace else MIN_COMMANDS
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 0
        out_dir = os.path.join(work, f"out{len(records)}")
        code, out, err, result = run_child(
            work, [*argv, "--output-dir", out_dir], trace=traced)
        if result is None or "wall_s" not in result:
            problems = [f"child exited {code} without a result: "
                        f"{err.strip()[-500:]}"]
        else:
            problems = workload.check(code, out, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        records.append({"traced": traced, "result": result,
                        "problems": problems})
        elapsed = time.perf_counter() - start
        if len(records) >= minimum and \
                elapsed * (len(records) + 1) / len(records) > seconds:
            return records


def machine(seed, versions) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "blas_threads": BLAS_THREADS, "seed": seed}


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(timed, setup_samples) -> dict:
    ok = [r["result"] for r in timed]
    return {
        "wall_s": (_median([r["wall_s"] for r in ok]), "s"),
        "setup_s": (_median(setup_samples + [r["setup_s"] for r in ok]), "s"),
        "peak_rss_mib": (_median([r["peak_rss_mib"] for r in ok]), "MiB"),
    }


def per_layer(timed) -> tuple[dict, list]:
    """Median per-layer metrics over the traced commands; also absent names."""
    traced = [r["result"] for r in timed if r["traced"]]
    plain = [r["result"]["wall_s"] for r in timed if not r["traced"]]
    per_cmd = [tracing.layer_metrics(t["spans"], t["counters"]) for t in traced]
    metrics = {}
    for name in tracing.LAYER_METRICS:
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (_median([m[name] for m in per_cmd]), unit)
    traced_wall = _median([t["wall_s"] for t in traced])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - _median(plain), "s")
    metrics["trace.spans"] = (_median([len(t["spans"]) for t in traced]),
                              "count")
    absent = sorted({a for t in traced for a in t["absent"]}
                    | {p for t in traced for p in t["probe_errors"]})
    metrics["trace.absent"] = (len(absent), "count")
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ventcelfem", "cli.py")):
        print(f"no ventcelfem package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        versions = import_sample(work)["versions"]   # warm-up, discarded
        setup = [] if args.trace else [
            import_sample(work)["setup_s"] for _ in range(SETUP_SAMPLES)]
        cli_argv = prepare_argv(workload, args.seed, work)
        records = run_commands(workload, cli_argv, args.seconds,
                               bool(args.trace), work)
    except (SetupError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r["problems"] for r in records if r["problems"]]
    for problems in failed:
        print("FAILED: " + "; ".join(problems), file=sys.stderr)
    timed = [r for r in records if r["result"] and "wall_s" in r["result"]]
    if not timed or (args.trace and not any(r["traced"] for r in timed)):
        print("no command completed", file=sys.stderr)
        return 2
    if args.trace:
        metrics, absent = per_layer(timed)
    else:
        metrics, absent = end_to_end(timed, setup), []

    print(json.dumps({
        "workload": args.workload, "trace": args.trace,
        "machine": machine(args.seed, versions),
        "commands": len(records),
        "wall_s_samples": [r["result"]["wall_s"] for r in timed],
        "peak_rss_mib_samples": [r["result"]["peak_rss_mib"] for r in timed],
        "setup_s_samples": setup,
        "absent": absent,
    }))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
