"""Run one ``mlmc-sdde`` CLI invocation in this fresh process; report it.

Usage::

    python3 child.py SRC LAUNCH_NS TRACE [CLI ARGS...]

``SRC`` is the directory holding the ``mlmc_sdde`` package to measure,
``LAUNCH_NS`` the parent's ``time.monotonic_ns()`` just before it started
this process, and ``TRACE`` 1 to install the span tracer.  With no CLI
arguments the process only imports the package (a warm-up).  The last
line of standard output is one JSON object:

* ``setup_s``: launch until numpy, scipy and ``mlmc_sdde.cli`` are
  imported and ``main`` can be called;
* ``wall_s``: duration of ``cli.main(argv)``;
* ``exit_code``, ``peak_rss_mib`` (``ru_maxrss`` of this process);
* ``numpy``, ``scipy``, ``python``: versions;
* ``layers``: per-layer metrics, traced runs only.
"""

import json
import os
import platform
import resource
import sys
import time


def main() -> int:
    src, launch_ns, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    import numpy
    import scipy
    from mlmc_sdde import cli

    setup_s = (time.monotonic_ns() - launch_ns) / 1e9
    origin = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if origin != os.path.abspath(src):
        print(f"mlmc_sdde imported from {origin}, not {src}", file=sys.stderr)
        return 1
    record = {"setup_s": setup_s, "numpy": numpy.__version__,
              "scipy": scipy.__version__, "python": platform.python_version()}
    if argv:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        record["exit_code"] = cli.main(argv)
        record["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            record["layers"] = tracer.metrics()
    record["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
