"""Every function defined in ``src/ventcelfem`` runs for some command.

``cli.main`` is driven in-process over the traffic the CLI serves: the
verify suite, the benchmark's and CI's solve command lines at small n,
a solve with every load key, each domain form, ``convergence``,
``mesh``, ``info`` from a config file and the documented error exits.
A profile hook on this thread and on every thread started meanwhile
(the solve's lift worker) records each code object entered.  Every
``def`` in the package, nested ones included, must have been entered,
apart from the abstract base methods in ``ALLOWED`` that only raise
and the defs in ``OUTSIDE_CALLERS``.  A def that no command reaches
belongs in ``tests/`` or nowhere.

Every ``raise`` in the package outside ``ALLOWED`` raises one of the
exceptions ``cli.main`` maps to an exit code, so any other exception
that escapes a command is a bug.
"""

import ast
import pathlib
import sys
import threading

from ventcelfem import cli
from ventcelfem.domain import make_domain
from ventcelfem.mesh import triangulate

SRC = pathlib.Path(cli.__file__).parent

# (file, qualified name) of the abstract base methods that only raise
ALLOWED = frozenset([
    ("geometry.py", "Curve.point"),
    ("geometry.py", "Curve.velocity"),
    ("geometry.py", "Curve.acceleration"),
    ("geometry.py", "Curve.token"),
    ("fields.py", "Coefficient.eval_points"),
    ("fields.py", "Coefficient.tangential_deriv"),
])

# (file, qualified name) of defs that only code outside the package
# calls: the benchmark's tracer counts chain edges with
# len(space.ventcel_edges)
OUTSIDE_CALLERS = frozenset([
    ("femcore.py", "VentcelChain.__len__"),
])

# the exceptions cli.main turns into exit codes 2, 3 and 4
MAPPED = frozenset(["InputError", "SingularSystemError", "InternalError"])


def package_nodes():
    """(file, owner, node) for every syntax node in the package.

    The owner is the qualified name of the innermost def holding the
    node, a def's own for the def itself, "" at module level.
    """
    out = []

    def visit(node, prefix, owner, fname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out.append((fname, name, child))
                visit(child, f"{name}.", name, fname)
            else:
                out.append((fname, owner, child))
                inner = (f"{prefix}{child.name}."
                         if isinstance(child, ast.ClassDef) else prefix)
                visit(child, inner, owner, fname)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", "", path.name)
    return out


def defined_functions():
    """(file, first line, qualified name) of every def in the package.

    The first line is the first decorator's, where ``co_firstlineno``
    of the function's code object points.
    """
    return [(fname, min([node.lineno]
                        + [d.lineno for d in node.decorator_list]), name)
            for fname, name, node in package_nodes()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def write_nodal(path, mesh, func):
    path.write_text("node,value\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(func(mesh.nodes).tolist())))
    return f"nodal:{path}"


def traffic(tmp):
    """(argv, expected exit code) for each command the probe runs."""
    mesh = triangulate(make_domain("annulus"), 4)
    a2 = write_nodal(tmp / "a2.csv", mesh, lambda p: 3.0 + p[:, 0])
    f1 = write_nodal(tmp / "f1.csv", mesh, lambda p: p[:, 0] * p[:, 1])
    phi = write_nodal(tmp / "phi.csv", mesh,
                      lambda p: 1.0 + p[:, 0] - 2.0 * p[:, 1] ** 2)
    config = tmp / "run.cfg"
    config.write_text("domain = cable\nn = 4\na2 = inv_curvature  # arc\n")
    square = ["solve", "--domain", "square", "--n", "4"]
    annulus = ["solve", "--domain", "annulus", "--n", "4"]
    return [
        (["verify", "--seed", "42"], 0),
        (["solve", "--domain", "cable", "--n", "8", "--a2", "inv_curvature",
          "--phi", "harmonic_cubic", "--exact", "harmonic_cubic",
          "--seed", "1"], 0),
        (annulus + ["--phi", "log_radial", "--seed", "1", "--a2", a2,
                    "--f1", f1, "--a0", "poly:0.5,0,0,0.2,0,0.1",
                    "--g1", "poly:0.3,-0.2,0.1,0.4,-0.5,0.6"], 0),
        (annulus + ["--a2", a2, "--f1", f1, "--phi", phi], 0),
        (square + ["--phi", "affine", "--exact", "affine", "--f1", "const:1",
                   "--f2x", "poly:0,1", "--f2y", "const:0.5",
                   "--g1", "poly:-3,0,2", "--g2", "poly:1,0,1"], 0),
        (["solve", "--domain", "annulus:1,2,inner", "--n", "4",
          "--phi", "log_radial"], 0),
        (annulus + ["--a2", "inv_curvature"], 2),
        (square + ["--a2", "inv_curvature"], 2),
        (["convergence", "--domain", "cable", "--n", "4", "--levels", "3"], 0),
        (["mesh", "--domain", "annulus", "--n", "4"], 0),
        (["info", "--config", str(config)], 0),
        (square + ["--f1", "inv_curvature"], 2),
        (square + ["--f1", "const:nan"], 2),
    ]


def test_every_def_in_src_is_reached_by_a_command(tmp_path, capsys):
    commands = traffic(tmp_path)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    old = sys.getprofile()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        for k, (argv, _) in enumerate(commands):
            codes.append(cli.main(argv + ["--output-dir",
                                          str(tmp_path / f"run{k}")]))
    finally:
        sys.setprofile(old)
        threading.setprofile(None)
    capsys.readouterr()
    assert codes == [rc for _, rc in commands]

    reached = {(path.name, code.co_firstlineno) for code in entered
               for path in [pathlib.Path(code.co_filename)]
               if path.parent == SRC}
    missed = [f"{fname}:{line} {name}"
              for fname, line, name in defined_functions()
              if (fname, line) not in reached
              and (fname, name) not in ALLOWED | OUTSIDE_CALLERS]
    assert not missed, "defs no command reaches:\n" + "\n".join(missed)


def test_every_raise_in_src_maps_to_an_exit_code():
    unmapped = []
    for fname, owner, node in package_nodes():
        if not isinstance(node, ast.Raise) or (fname, owner) in ALLOWED:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if not (isinstance(exc, ast.Name) and exc.id in MAPPED):
            unmapped.append(f"{fname}:{node.lineno} {owner}: "
                            f"{ast.unparse(node)}")
    assert not unmapped, ("raises no exit code maps:\n"
                          + "\n".join(unmapped))
