"""Every function defined in ``src/ventcelfem`` runs for some command.

``cli.main`` is driven in-process over every row of ``tests/cases.py``:
the verify suite, solves on each domain form with every load key and
with nodal data, ``convergence``, ``mesh``, ``info`` from a config file
and the documented error exits.  A profile hook on this thread and on
every thread a run starts (the solve's lift worker) records each code
object entered.  Every ``def`` in the package, nested ones included,
must have been entered, apart from the abstract base methods in
``ALLOWED`` that only raise and the defs in ``OUTSIDE_CALLERS``.  A def
that no command reaches belongs in ``tests/`` or nowhere.

Every ``raise`` in the package outside ``ALLOWED`` raises one of the
exceptions ``cli.main`` maps to an exit code, so any other exception
that escapes a command is a bug.
"""

import ast
import pathlib

import cases
from ventcelfem import cli

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


def test_every_def_in_src_is_reached_by_a_command(runs):
    for name in cases.ROWS:
        runs[name]      # runs the row unless a test before ran it
    reached = {(path.name, code.co_firstlineno) for code in runs.entered
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
