"""Command-line driver: solve, convergence, verify, mesh, info.

Configuration comes from flags and/or a "key = value" text file, with
flags winning; the output directory can also come from the
VENTCELFEM_OUTPUT_DIR environment variable (flag > env > file >
default).  Exit codes: 0 success, 1 verification-suite failure,
2 configuration error (an InputError, raised where the input is read
or checked), 3 solver failure, 4 internal error (a broken invariant of
the program, such as a mesh triangle of nonpositive area, not a fault
of the input).  Any other exception is a bug and keeps its traceback.
A mesh above ``MAX_NODES`` nodes is a configuration error, caught
before anything is allocated.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import verify
from .domain import InputError, InternalError, make_domain
from .fields import EXACT_SOLUTIONS, parse_coefficient
from .femcore import build_space, coefficient_bounds
from .mesh import (_write_text, mesh_quality, node_count, triangulate,
                   write_mesh)
from .solver import (
    SingularSystemError,
    VentcelProblem,
    manufactured_problem,
    solve_ventcel,
    write_solution_csv,
    write_trace_csv,
)

ENV_OUTPUT_DIR = "VENTCELFEM_OUTPUT_DIR"

# largest mesh a command builds: n = 999 on cable or square, n = 499 on
# the annulus; a cable solve at n = 256 (66,049 nodes) peaks near 192 MiB
MAX_NODES = 1_000_000

# CoefficientBounds fields that solve's diagnostics.txt and info print
BOUND_KEYS = ("lambda2", "Lambda2", "grad_bound", "lambda0", "Lambda0",
              "sigma0")

DEFAULT_EXACT = {
    "cable": "harmonic_cubic",
    "square": "affine",
    "annulus": "log_radial",
}


# every configuration key, in flag and echo order: its default and its
# help text.  The flag is --key with "_" written "-"; a key whose default
# is an int takes an integer.
OPTIONS = {
    "domain": ("cable", "cable | square | annulus[:r0,r1,side]"),
    "n": (16, "mesh subdivision (>= 2)"),
    "levels": (4, "refinement levels (>= 3)"),
    "a2": ("const:1", "chain diffusion coefficient"),
    "a0": ("const:0", "chain reaction coefficient"),
    "f1": ("", "interior source"),
    "f2x": ("", "interior flux source, x component"),
    "f2y": ("", "interior flux source, y component"),
    "g1": ("", "chain source"),
    "g2": ("", "chain flux source"),
    "phi": ("", "wall (Dirichlet) data"),
    "exact": ("", "exact solution name for error studies"),
    "seed": (42, "accepted for old command lines; no command reads it"),
    "output_dir": (".", "artifact directory"),
}

# a comment: '#' at the start of a line or after whitespace, to the end
_COMMENT = re.compile(r"(?:^|\s)#.*")


def read_config_file(path: str) -> dict:
    """Parse a key = value file; ``_COMMENT`` marks a comment."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"config: cannot read {path!r}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config: {path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in OPTIONS:
            raise InputError(f"config: unknown key {key!r} in {path}")
        out[key] = value.strip()
    return out


def _coerce(key: str, value: str):
    """A config file's text ``value`` as the type of the key's default."""
    if not isinstance(OPTIONS[key][0], int):
        return value
    try:
        return int(value)
    except ValueError:
        raise InputError(f"{key}: expected an integer, got {value!r}") \
            from None


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Merge defaults, config file, environment, and flags (argparse
    types these) into the command and one attribute per key."""
    values = {key: default for key, (default, _) in OPTIONS.items()}
    if args.config:
        for key, value in read_config_file(args.config).items():
            values[key] = _coerce(key, value)
    values["output_dir"] = (os.environ.get(ENV_OUTPUT_DIR)
                            or values["output_dir"])
    for key in OPTIONS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    cfg = argparse.Namespace(command=args.command, **values)

    if cfg.n < 2:
        raise InputError(f"n: subdivision must be at least 2, got {cfg.n}")
    if cfg.seed < 0:
        raise InputError(
            f"seed: must be a nonnegative integer, got {cfg.seed}")
    if cfg.command == "convergence" and cfg.levels < 3:
        raise InputError(
            f"levels: need at least 3 for a convergence study, got {cfg.levels}")
    if cfg.exact and cfg.exact not in EXACT_SOLUTIONS:
        known = ", ".join(sorted(EXACT_SOLUTIONS))
        raise InputError(f"exact: unknown solution {cfg.exact!r} (known: {known})")
    return cfg


def config_echo(cfg: argparse.Namespace) -> str:
    """Reparseable key = value block (command excluded).  A value that
    ``read_config_file`` would not read back (a line break, whitespace at
    either end, a comment) is an InputError naming its key."""
    for key in OPTIONS:
        value = str(getattr(cfg, key))
        # read with universal newlines, "\r" ends a line as "\n" does
        if re.search("[\r\n]", value) or value != _COMMENT.sub(
                "", " " + value, count=1).strip():
            raise InputError(f"{key}: {value!r} would not read back from "
                             "info's key = value echo")
    return "\n".join(f"{key} = {getattr(cfg, key)}" for key in OPTIONS)


def _domain_or_error(cfg: argparse.Namespace, finest_n: int | None = None):
    """The configured domain, once its finest mesh is known to fit.

    ``finest_n`` is the largest subdivision the command meshes
    (default ``cfg.n``).
    """
    dom = make_domain(cfg.domain)
    n = cfg.n if finest_n is None else finest_n
    nodes = node_count(dom, n)
    if nodes > MAX_NODES:
        raise InputError(
            f"n: the {dom.kind} mesh at n = {n} has {nodes} nodes, above the "
            f"cap of {MAX_NODES}")
    return dom


def _output_dir(cfg: argparse.Namespace) -> None:
    """Create the artifact directory before any work is done."""
    if "\0" in cfg.output_dir:     # os.makedirs would raise a bare ValueError
        raise InputError(f"output_dir: {cfg.output_dir!r} has a NUL byte")
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"output_dir: cannot use {cfg.output_dir!r}: "
                         f"{exc.strerror or exc}") from None


def build_problem(cfg: argparse.Namespace, dom, mesh) -> VentcelProblem:
    coef = lambda text, role: parse_coefficient(text, mesh, role)
    a2, a0 = coef(cfg.a2, "a2"), coef(cfg.a0, "a0")
    opt = lambda text, role: coef(text, role) if text else None
    f2 = None
    if cfg.f2x or cfg.f2y:
        f2 = (coef(cfg.f2x or "const:0", "f2x"),
              coef(cfg.f2y or "const:0", "f2y"))
    exact = EXACT_SOLUTIONS[cfg.exact] if cfg.exact else None
    return VentcelProblem(
        domain=dom, a2=a2, a0=a0,
        f1=opt(cfg.f1, "f1"), f2=f2,
        g1=opt(cfg.g1, "g1"), g2=opt(cfg.g2, "g2"),
        phi=opt(cfg.phi, "phi"), exact=exact)


def cmd_solve(cfg: argparse.Namespace) -> int:
    dom = _domain_or_error(cfg)
    _output_dir(cfg)
    mesh = triangulate(dom, cfg.n)
    problem = build_problem(cfg, dom, mesh)
    solution = solve_ventcel(problem, mesh=mesh)

    sol_path = os.path.join(cfg.output_dir, "solution.csv")
    write_solution_csv(solution, sol_path)
    write_trace_csv(solution, os.path.join(cfg.output_dir, "trace.csv"))

    lines = [
        f"nodes = {solution.space.n_nodes}",
        f"free_dofs = {solution.space.n_free}",
        f"h = {solution.space.h:.17g}",
        f"algebraic_residual = {solution.residual:.17g}",
        f"rcond = {solution.rcond:.17g}",
    ] + [f"{key} = {getattr(solution.bounds, key):.17g}" for key in BOUND_KEYS]
    if problem.exact is not None:
        e2, ev, et = verify.solution_errors(solution, problem.exact)
        lines += [f"e_L2 = {e2:.17g}", f"e_V0 = {ev:.17g}",
                  f"e_trace = {et:.17g}"]
    _write_text(os.path.join(cfg.output_dir, "diagnostics.txt"),
                "\n".join(lines) + "\n")
    print(f"solved {cfg.domain} n={cfg.n}: {solution.space.n_nodes} nodes, "
          f"algebraic residual {solution.residual:.3g}")
    print(f"wrote {sol_path}")
    return 0


def cmd_convergence(cfg: argparse.Namespace) -> int:
    # the finest level is n * 2^(levels - 1); past 2^64 it is over the cap
    # whatever n is, so the shift stays small for any levels
    dom = _domain_or_error(cfg, cfg.n << min(cfg.levels - 1, 64))
    exact = cfg.exact or DEFAULT_EXACT[dom.kind]
    a2 = parse_coefficient(cfg.a2, None, "a2")
    a0 = parse_coefficient(cfg.a0, None, "a0")
    problem = manufactured_problem(dom, exact, a2, a0)
    _output_dir(cfg)
    report = verify.manufactured_convergence(problem, n0=cfg.n,
                                             levels=cfg.levels)
    path = os.path.join(cfg.output_dir, "convergence.csv")
    _write_text(path, report.csv_text())
    o2, ov, ot = report.observed_orders
    print(f"convergence {cfg.domain}/{exact}: orders L2 {o2:.3f}, "
          f"V0 {ov:.3f}, trace {ot:.3f}")
    print(f"wrote {path}")
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    _output_dir(cfg)
    passed, summary = verify.run_suite(cfg.output_dir)
    sys.stdout.write(summary)
    return 0 if passed else 1


def cmd_mesh(cfg: argparse.Namespace) -> int:
    dom = _domain_or_error(cfg)
    _output_dir(cfg)
    mesh = triangulate(dom, cfg.n)
    path = os.path.join(cfg.output_dir, "mesh.txt")
    write_mesh(mesh, path)
    print(f"mesh {cfg.domain} n={cfg.n}: {len(mesh.nodes)} nodes, "
          f"{len(mesh.triangles)} triangles, quality {mesh_quality(mesh):.4f}")
    print(f"wrote {path}")
    return 0


def cmd_info(cfg: argparse.Namespace) -> int:
    echo = config_echo(cfg)
    dom = _domain_or_error(cfg)
    mesh = triangulate(dom, cfg.n)
    space = build_space(mesh)
    a2 = parse_coefficient(cfg.a2, mesh, "a2")
    a0 = parse_coefficient(cfg.a0, mesh, "a0")
    bounds = coefficient_bounds(space, a2, a0)
    print(echo)
    print(f"# nodes = {space.n_nodes}, free = {space.n_free}, h = {space.h:.6g}")
    for key in BOUND_KEYS:
        print(f"# {key} = {getattr(bounds, key):.17g}")
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "verify": cmd_verify,
    "mesh": cmd_mesh,
    "info": cmd_info,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ventcelfem",
        description="P1 solver for mixed second-order boundary conditions "
                    "on curved chains, with a verification suite.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="key = value configuration file")
    for key, (default, text) in OPTIONS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            type=type(default), help=text)
    args = parser.parse_args(argv)

    try:
        cfg = build_config(args)
        return COMMANDS[cfg.command](cfg)
    except InputError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
