"""Run one ventcelfem command in this fresh interpreter and time it.

Usage: python3 child.py SRC_DIR RESULT_JSON TRACE [CLI ARGS...]

Imports ``ventcelfem.cli`` from SRC_DIR (timed as set-up), then, with
TRACE = 1, instruments the package, calls the CLI entry point with the
remaining arguments (timed as the command's wall time) and writes the
timings, peak resident memory, library versions and any spans to
RESULT_JSON.  Without CLI arguments it only imports.  Exits with the
command's exit code.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    src, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import ventcelfem.cli as cli
    setup_s = time.perf_counter() - t0
    origin = os.path.abspath(cli.__file__)
    if not origin.startswith(os.path.abspath(src) + os.sep):
        print(f"ventcelfem imported from {origin}, not {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    result = {"setup_s": setup_s,
              "versions": {"numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    code = 0
    if argv:
        tracer = None
        if trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        t1 = time.perf_counter()
        code = cli.main(argv)
        result["wall_s"] = time.perf_counter() - t1
        result["exit_code"] = code
        if tracer is not None:
            result.update(spans=tracer.spans, counters=tracer.counters,
                          absent=tracer.absent,
                          probe_errors=tracer.probe_errors)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
