"""One CLI call in a fresh interpreter, so it pays the imports and cold caches a user pays.

    python3 bench/child.py RESULT.json TRACE [CLI ARGS...]

Writes RESULT.json with the monotonic time at which ``import wernerlab.cli``
finished (the parent subtracts its spawn time to get set-up time), the wall
time of ``cli.main``, its exit code, the process's peak RSS and, with
TRACE=1, the spans recorded around each layer's entry points.  With no CLI
arguments it only imports, which measures set-up alone.
"""

import json
import resource
import sys
import time
import traceback


def main() -> None:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from wernerlab import cli

    ready = time.monotonic()
    out = {"ready": ready, "rc": None, "wall_s": None, "error": None, "spans": []}
    if not argv:
        import numpy
        import scipy

        out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": _openblas()}
    else:
        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            out["rc"] = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
        except Exception:  # a crash is a failed operation, reported with its traceback
            out["error"] = traceback.format_exc()
        out["wall_s"] = time.perf_counter() - t0
        if tracer:
            out["spans"] = tracer.spans
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(out, fh)


def _openblas():
    import numpy

    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return None


if __name__ == "__main__":
    main()
