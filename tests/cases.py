"""One table of ``ventcelfem`` command lines: ``ROWS``.

Each row gives a command line, the exit code it must give, the start
of the one line it must print on stderr (empty when it exits 0 and
prints nothing there) and whether its outputs are committed in
``tests/golden/<name>/``.  ``{inputs}`` in a command line
stands for a directory that ``write_inputs`` filled.  ``run`` names the
output directory before the line, so a row's own ``--output-dir`` wins.

``run`` writes that directory back as ``{inputs}`` in the stderr, so a
row's stderr text may name one of its files.

``golden/regen.py`` regenerates the golden rows, ``test_golden.py``
runs every row and checks it against the table, and
``test_reachability.py`` checks that the rows together enter every def
in the package.
"""

import contextlib
import io
import pathlib
from typing import NamedTuple

from ventcelfem import cli
from ventcelfem.domain import make_domain
from ventcelfem.mesh import triangulate

# what a command's stdout says in place of its output directory
OUT = "OUT"

# the nodal a2, f1 and phi of the nodal annulus rows
NODAL = {"a2": lambda x, y: 3.0 + x, "f1": lambda x, y: x * y,
         "phi": lambda x, y: 1.0 + x - 2.0 * y * y}


class Row(NamedTuple):
    line: str
    code: int = 0
    stderr: str = ""
    golden: bool = False

    def argv(self, inputs):
        return [word.format(inputs=inputs) for word in self.line.split()]


class Run(NamedTuple):
    code: int
    stdout: str
    stderr: str
    out: pathlib.Path


CABLE = " --a2 inv_curvature --phi harmonic_cubic --exact harmonic_cubic"
NODAL_A2_F1 = " --a2 nodal:{inputs}/a2.csv --f1 nodal:{inputs}/f1.csv"
WEAK_ANNULUS = "solve --domain annulus --n 32 --phi log_radial --g1 const:0.5"
CONFIG = "configuration error: "
DOMAIN = CONFIG + "domain: annulus "
OVERFLOW = "solver failure: solver produced non-finite values"
SINGULAR = ("solver failure: reduced system is singular to working "
            "precision (rcond = ")
FINITE = {"a2": "values", "a0": "values", "phi": "wall data"}
COMMANDS = ("info", "solve", "mesh", "convergence")
# the keys whose inv_curvature is asked off a boundary curve
OFF_CHAIN = ("f1", "f2x", "f2y", "phi")
EMPTY_CELLS = ("poly:1,,2", "poly:1,")
NON_FINITE = (("phi", "const:nan"), ("phi", "const:inf"), ("a2", "const:nan"),
              ("a2", "poly:nan"), ("a2", "const:inf"), ("a0", "const:nan"),
              ("a0", "const:-inf"), ("f1", "const:nan"), ("f2x", "const:inf"),
              ("f2y", "poly:0,nan"), ("g1", "const:-inf"), ("g2", "const:nan"))

ROWS = {
    # golden
    "verify_seed42": Row("verify --seed 42", golden=True),
    "solve_cable_n32": Row("solve --domain cable --n 32" + CABLE,
                           golden=True),
    "solve_annulus_nodal_n8": Row(
        "solve --domain annulus --n 8" + NODAL_A2_F1
        + " --phi nodal:{inputs}/phi.csv", golden=True),
    "solve_square_all_loads_n16": Row(
        "solve --domain square --n 16 --a2 poly:2,0.5 --a0 const:1 "
        "--f1 poly:1,0.5,-0.25 --f2x poly:0.5,0,1 --f2y poly:-0.5,1 "
        "--g1 const:0.5 --g2 poly:0.2,0.1 --phi affine", golden=True),
    "convergence_cable": Row("convergence --domain cable --n 8 --levels 3",
                             golden=True),
    "convergence_annulus": Row(
        "convergence --domain annulus --n 8 --levels 3", golden=True),
    "info_cable_n16": Row("info --domain cable --n 16 --a2 inv_curvature",
                          golden=True),
    **{f"mesh_{domain}_n16": Row(f"mesh --domain {domain} --n 16", golden=True)
       for domain in ("cable", "annulus", "square")},

    # exit 0; no check reads --seed, so this writes verify_seed42's bytes
    "verify_seed7": Row("verify --seed 7"),
    # the cable solve factors while its worker builds the lift
    "solve_cable_n64": Row("solve --domain cable --n 64" + CABLE),
    "solve_annulus_nodal_loads": Row(
        "solve --domain annulus --n 8 --phi log_radial --seed 1" + NODAL_A2_F1
        + " --a0 poly:0.5,0,0,0.2,0,0.1 --g1 poly:0.3,-0.2,0.1,0.4,-0.5,0.6"),
    "solve_inner_annulus": Row(
        "solve --domain annulus:1,2,inner --n 4 --phi log_radial"),
    "info_config_file": Row("info --config {inputs}/run.cfg"),
    # rcond 9.5e-11 at a2 = 1e6 and 9.6e-17 at a2 = 1e12
    "solve_annulus_a2_1e6": Row(WEAK_ANNULUS + " --a2 const:1e6"),
    "solve_annulus_a2_1e12": Row(WEAK_ANNULUS + " --a2 const:1e12", 3,
                                 SINGULAR),
    # the first level, n = 8, is singular to working precision
    **{f"convergence_annulus_a2_{a2}": Row(
        f"convergence --domain annulus --n 8 --levels 3 --a2 const:{a2}", 3,
        SINGULAR) for a2 in ("1e10", "1e12")},

    # exit 2: the configuration is refused before any output
    "solve_hexagon": Row("solve --domain hexagon --n 2", 2,
                         CONFIG + "domain: unknown domain 'hexagon'"),
    "solve_n1": Row("solve --n 1", 2,
                    CONFIG + "n: subdivision must be at least 2, got 1"),
    "info_unknown_exact": Row("info --exact mystery", 2,
                              CONFIG + "exact: unknown solution 'mystery'"),
    # a '#' after whitespace starts a comment: the echo would read back ''
    "info_output_dir_comment": Row(
        "info --n 2 --output-dir #x", 2,
        CONFIG + "output_dir: '#x' would not read back"),
    "solve_unknown_a2": Row("solve --domain square --n 2 --a2 mystery", 2,
                            CONFIG + "a2: unknown coefficient 'mystery'"),
    "solve_negative_a2": Row("solve --domain square --n 2 --a2 const:-1", 2,
                             CONFIG + "a2 must be strictly positive"),
    "solve_annulus_inv_curvature": Row(
        "solve --domain annulus --n 4 --a2 inv_curvature", 2,
        CONFIG + "a2 must be strictly positive"),
    # the square's chains are straight, so 1/curvature is infinite
    "solve_square_inv_curvature": Row(
        "solve --domain square --n 4 --a2 inv_curvature", 2,
        CONFIG + "a2: values must be finite"),
    "info_square_inv_curvature": Row(
        "info --domain square --n 4 --a2 inv_curvature"),
    **{f"solve_{key}_inv_curvature": Row(
        f"solve --domain cable --n 4 --{key} inv_curvature", 2,
        CONFIG + f"{key}: inv_curvature is defined only on boundary curves")
       for key in OFF_CHAIN},
    "convergence_cable_exact_log_radial": Row(
        "convergence --domain cable --n 2 --levels 3 --exact log_radial", 2,
        CONFIG + "exact: the exact solution must be finite on the walls"),
    "solve_a2_poly_7_cells": Row(
        "solve --domain square --n 2 --a2 poly:1,2,3,4,5,6,7", 2,
        CONFIG + "a2: poly takes 1..6 coefficients, got 'poly:1,2,3,4,5,6,7'"),
    "solve_a2_const:x": Row("solve --domain square --n 2 --a2 const:x", 2,
                            CONFIG + "a2: bad constant in 'const:x'"),
    "convergence_nodal_a2": Row(
        "convergence --domain annulus --n 8 --levels 3"
        " --a2 nodal:{inputs}/a2.csv", 2,
        CONFIG + "a2: nodal coefficient needs a mesh"),
    "mesh_annulus_two_fields": Row(
        "mesh --domain annulus:1,2 --n 4", 2,
        DOMAIN + "takes r_inner,r_outer,side, got 'annulus:1,2'"),
    "mesh_annulus_middle": Row(
        "mesh --domain annulus:1,2,middle --n 4", 2,
        CONFIG + "domain: ventcel_on must be 'inner' or 'outer'"),
    "mesh_annulus_bad_radius": Row(
        "mesh --domain annulus:a,2,outer --n 4", 2,
        CONFIG + "domain: bad radius in 'annulus:a,2,outer'"),
    "info_config_unknown_key": Row(
        "info --config {inputs}/unknown_key.cfg", 2,
        CONFIG + "config: unknown key 'colour' in {inputs}/unknown_key.cfg"),
    "info_config_n_text": Row(
        "info --config {inputs}/n_text.cfg", 2,
        CONFIG + "n: expected an integer, got 'four'"),
    "info_config_no_equals": Row(
        "info --config {inputs}/no_equals.cfg", 2,
        CONFIG + "config: {inputs}/no_equals.cfg:2: expected key = value"),
    "convergence_levels_2": Row(
        "convergence --domain square --n 4 --levels 2", 2,
        CONFIG + "levels: need at least 3 for a convergence study, got 2"),
    "solve_tiny_annulus": Row(
        "solve --domain annulus:1e-200,2e-200,inner --n 4", 2,
        DOMAIN + "needs 1e-50 <= r_inner < r_outer <= 1e+50"),
    **{f"{command}_infinite_annulus": Row(
        f"{command} --domain annulus:1,inf,outer --n 4", 2,
        DOMAIN + "needs 1e-50 <= r_inner < r_outer <= 1e+50")
       for command in COMMANDS},
    # its node rings coincide after rounding
    **{f"{command}_thin_annulus": Row(
        f"{command} --domain annulus:1,1.0000000000000002,outer --n 4", 2,
        DOMAIN + "1.0, 1.0000000000000002 is too thin to mesh at n = 4")
       for command in COMMANDS},
    # an empty cell is rejected, not skipped: poly:1,,2 is not 1 + 2x
    **{f"solve_a2_{text}": Row(f"solve --domain square --n 2 --a2 {text}", 2,
                               CONFIG + f"a2: bad number in {text!r}")
       for text in EMPTY_CELLS},
    **{f"solve_{key}_{text}": Row(
        f"solve --domain square --n 4 --{key} {text}", 2,
        CONFIG + f"{key}: {FINITE.get(key, 'load data')} must be finite")
       for key, text in NON_FINITE},

    # the wall data is refused before the solve factors
    "solve_cable_phi_const:nan": Row(
        "solve --domain cable --n 2 --phi const:nan", 2,
        CONFIG + "phi: wall data must be finite"),

    # huge or infinite data: inf * 0 and sums past the double range give
    # nan or inf, which a finiteness check or the solve reports
    **{f"solve_cable_{key}_{text}": Row(
        f"solve --domain cable --n 2 --{key} {text}", 2,
        CONFIG + f"{key}: {FINITE.get(key, 'load data')} must be finite")
       for key, text in (("f1", "poly:0,inf"), ("g1", "poly:1e308,1e308"),
                         ("a2", "poly:1e308,1e308"),
                         ("phi", "poly:1e308,1e308"))},
    # grad_bound**2 is past the double range
    "info_cable_a2_poly:1e308,1e308": Row(
        "info --domain cable --n 2 --a2 poly:1e308,1e308"),
    "convergence_cable_a2_poly:1e308,1e308": Row(
        "convergence --domain cable --n 2 --levels 3 --a2 poly:1e308,1e308",
        2, CONFIG + "a2: values must be finite"),
    "convergence_cable_a0_const:1e308": Row(
        "convergence --domain cable --n 2 --levels 3 --a0 const:1e308", 2,
        CONFIG + "a0: the a0 term of the manufactured chain load must be "
        "finite"),
    "solve_cable_f2x_const:1e308": Row(
        "solve --domain cable --n 2 --f2x const:1e308", 3, OVERFLOW),
    # finite a2 whose chain blocks overflow
    "solve_square_a2_const:1e308": Row(
        "solve --domain square --n 2 --a2 const:1e308", 3, OVERFLOW),
    "solve_cable_a2_const:1.7e308": Row(
        "solve --domain cable --n 2 --a2 const:1.7e308", 3, OVERFLOW),
    "convergence_cable_a2_const:1.7e308": Row(
        "convergence --domain cable --n 2 --levels 3 --a2 const:1.7e308", 3,
        OVERFLOW),
}


def write_nodal(path, values):
    """A nodal csv at path: one ``node,value`` line per value."""
    path.write_text("".join(f"{i},{v!r}\n"
                            for i, v in enumerate(values.tolist())))


def write_inputs(inputs):
    """The files ``{inputs}`` stands for, in the directory inputs.

    ``NODAL``'s fields on the nodes of the annulus at n = 8, ``run.cfg``,
    a configuration file, and three configuration files that are refused.
    """
    x, y = triangulate(make_domain("annulus"), 8).nodes.T
    for key, field in NODAL.items():
        write_nodal(inputs / f"{key}.csv", field(x, y))
    (inputs / "run.cfg").write_text(
        "domain = cable\nn = 4\na2 = inv_curvature  # arc\n")
    (inputs / "unknown_key.cfg").write_text("n = 4\ncolour = red\n")
    (inputs / "n_text.cfg").write_text("domain = square\nn = four\n")
    (inputs / "no_equals.cfg").write_text("domain = square\nn 4\n")


def run(name, out, inputs):
    """Row ``name`` through ``cli.main`` in-process, into out: a ``Run``.

    In the stdout, out reads ``OUT``; in the stderr, inputs reads
    ``{inputs}``.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(["--output-dir", str(out)] + ROWS[name].argv(inputs))
    return Run(code, stdout.getvalue().replace(str(out), OUT),
               stderr.getvalue().replace(str(inputs), "{inputs}"), out)
