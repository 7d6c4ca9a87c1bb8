"""The benchmark's workloads: command lines, seeded inputs, output checks.

Each workload is one ``ventcelfem`` command line.  ``Workload.command``
builds it from the benchmark seed (writing any input files it needs),
and ``check`` inspects one finished command -- its exit code, captured
standard output and ``--output-dir`` artifacts -- and returns a list of
problems, empty when the output is correct.  This module uses only the
standard library, so run.py needs neither numpy nor the package.
"""

from __future__ import annotations

import csv
import math
import os
import random
from collections.abc import Callable
from dataclasses import dataclass

# Seed-commit values of the cable manufactured problem at n = 256.
CABLE_REFERENCE = {
    "e_L2": 2.7244994841277177e-05,
    "e_V0": 0.0250962986839239,
    "e_trace": 2.3882077062948782e-05,
}
CABLE_REL_TOL = 1e-9
CABLE_NODES = 66049
RESIDUAL_MAX = 1e-10

ANNULUS_N = 64
ANNULUS_NODES = 16640

VERIFY_ARTIFACTS = frozenset((
    "coercivity.csv", "compatibility.csv", "continuity.csv",
    "convergence_annulus.csv", "convergence_cable.csv",
    "convergence_square.csv", "counterexample.csv", "ibp.csv",
    "poincare_curve.csv", "poincare_interval.csv", "summary.txt",
    "trace_poincare.csv", "uniqueness.csv", "weak_residual.csv",
))


def read_diagnostics(path: str) -> dict:
    """``key = value`` lines of diagnostics.txt as floats."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, value = line.split("=", 1)
                out[key.strip()] = float(value)
    return out


def solution_rows(path: str) -> tuple[int, int]:
    """(data rows, rows with a non-finite or unparsable value) of solution.csv."""
    rows = bad = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            rows += 1
            try:
                if len(row) != 3 or not all(math.isfinite(float(v)) for v in row):
                    bad += 1
            except ValueError:
                bad += 1
    return rows, bad


def _solve_problems(out_dir: str, n_nodes: int) -> tuple[list, dict]:
    """Checks shared by both solve workloads; returns (problems, diagnostics)."""
    try:
        diag = read_diagnostics(os.path.join(out_dir, "diagnostics.txt"))
        rows, bad = solution_rows(os.path.join(out_dir, "solution.csv"))
    except (OSError, ValueError) as exc:
        return [f"unreadable solve output: {exc}"], {}
    problems = []
    residual = diag.get("algebraic_residual", math.nan)
    if not residual <= RESIDUAL_MAX:
        problems.append(f"algebraic_residual {residual!r} > {RESIDUAL_MAX}")
    if rows != n_nodes:
        problems.append(f"solution.csv has {rows} rows, expected {n_nodes}")
    if bad:
        problems.append(f"solution.csv has {bad} non-finite rows")
    return problems, diag


def check_solve_cable(code: int, stdout: str, out_dir: str) -> list:
    if code != 0:
        return [f"exit code {code}"]
    problems, diag = _solve_problems(out_dir, CABLE_NODES)
    for key, ref in CABLE_REFERENCE.items():
        got = diag.get(key, math.nan)
        if not abs(got - ref) <= CABLE_REL_TOL * abs(ref):
            problems.append(f"{key} = {got!r}, reference {ref!r}")
    return problems


def check_verify_suite(code: int, stdout: str, out_dir: str) -> list:
    problems = [] if code == 0 else [f"exit code {code}"]
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "ALL PASS":
        problems.append("summary does not end in ALL PASS")
    try:
        present = frozenset(os.listdir(out_dir))
    except OSError as exc:
        return problems + [f"unreadable output dir: {exc}"]
    if present != VERIFY_ARTIFACTS:
        missing = sorted(VERIFY_ARTIFACTS - present)
        extra = sorted(present - VERIFY_ARTIFACTS)
        problems.append(f"artifacts differ: missing {missing}, extra {extra}")
    return problems


def check_solve_annulus_nodal(code: int, stdout: str, out_dir: str) -> list:
    if code != 0:
        return [f"exit code {code}"]
    return _solve_problems(out_dir, ANNULUS_NODES)[0]


# ----------------------------------------------------------------------
# seeded inputs


def read_mesh_nodes(path: str) -> list:
    """Node coordinates from the NODES section of a ``ventcel-mesh v1`` file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    head = lines[1].split()
    if lines[0] != "ventcel-mesh v1" or head[0] != "NODES":
        raise ValueError(f"{path}: not a ventcel-mesh v1 file")
    nodes = []
    for row in lines[2:2 + int(head[1])]:
        _, x, y = row.split()
        nodes.append((float(x), float(y)))
    return nodes


def annulus_fields(seed: int):
    """Seeded smooth fields and polynomial flags for the nodal annulus.

    Returns (a2, f1, a0_flag, g1_flag) with a2 and f1 callables on (x, y).
    a2 varies with the polar angle, hence along the chain, and stays at
    least 0.5; a0 is a nonnegative quadratic; g1 is an arbitrary one.
    """
    rng = random.Random(seed)
    amp1, amp2 = rng.uniform(0.2, 0.6), rng.uniform(0.1, 0.3)
    ph1, ph2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
    base = 0.5 + amp1 + amp2 + rng.uniform(0.0, 1.0)

    def a2(x, y):
        th = math.atan2(y, x)
        return base + amp1 * math.cos(th - ph1) + amp2 * math.cos(2 * th - ph2)

    fa, fb = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
    kx, ky = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    px, py = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)

    def f1(x, y):
        return fa * math.sin(kx * x + px) * math.cos(ky * y + py) + fb

    a0 = [rng.uniform(0.0, 1.0), 0.0, 0.0,
          rng.uniform(0.0, 0.5), 0.0, rng.uniform(0.0, 0.5)]
    g1 = [rng.uniform(-1.0, 1.0) for _ in range(6)]
    a0_flag = "poly:" + ",".join(repr(c) for c in a0)
    g1_flag = "poly:" + ",".join(repr(c) for c in g1)
    return a2, f1, a0_flag, g1_flag


def write_nodal_csv(path: str, nodes, func) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node,value\n")
        for i, (x, y) in enumerate(nodes):
            fh.write(f"{i},{func(x, y)!r}\n")


# ----------------------------------------------------------------------
# the workloads


def annulus_inputs(seed: int, input_dir: str, nodes) -> list:
    """Write the seeded nodal files; returns the coefficient flags."""
    a2, f1, a0_flag, g1_flag = annulus_fields(seed)
    a2_path = os.path.join(input_dir, "a2.csv")
    f1_path = os.path.join(input_dir, "f1.csv")
    write_nodal_csv(a2_path, nodes, a2)
    write_nodal_csv(f1_path, nodes, f1)
    return ["--a2", "nodal:" + a2_path, "--f1", "nodal:" + f1_path,
            "--a0", a0_flag, "--g1", g1_flag]


@dataclass(frozen=True)
class Workload:
    """A command line (``{seed}`` stands for the seed) and its output check.

    ``inputs`` writes seeded input files for the nodes of the mesh that
    the untimed ``mesh_argv`` command prints, and returns extra flags.
    """

    name: str
    argv: tuple
    check: Callable
    mesh_argv: tuple | None = None
    inputs: Callable | None = None

    def command(self, seed: int, input_dir: str, nodes=None) -> list:
        argv = [a.replace("{seed}", str(seed)) for a in self.argv]
        if self.inputs is not None:
            argv += self.inputs(seed, input_dir, nodes)
        return argv


WORKLOADS = {w.name: w for w in (
    Workload("solve_cable",
             ("solve", "--domain", "cable", "--n", "256",
              "--a2", "inv_curvature", "--phi", "harmonic_cubic",
              "--exact", "harmonic_cubic", "--seed", "{seed}"),
             check_solve_cable),
    Workload("verify_suite", ("verify", "--seed", "{seed}"),
             check_verify_suite),
    Workload("solve_annulus_nodal",
             ("solve", "--domain", "annulus", "--n", str(ANNULUS_N),
              "--phi", "log_radial", "--seed", "{seed}"),
             check_solve_annulus_nodal,
             mesh_argv=("mesh", "--domain", "annulus", "--n", str(ANNULUS_N)),
             inputs=annulus_inputs),
)}
