"""One fresh benchmark process: import ranksel.cli, then run commands through main.

Usage (started by run.py, never by hand):

    python3 bench/child.py '<json job>'

The job holds ``t_spawn`` (the parent's CLOCK_MONOTONIC reading just before
it started this process), ``src`` (the checkout's source directory that
ranksel must be imported from), ``commands`` (argv lists for
ranksel.cli.main), and optionally ``spans_out``: when set, the public
functions of every layer are wrapped by tracing.Tracer and the spans are
written there as JSON lines after the last command.

The last line of standard output is one JSON object: the set-up time (process
start until ranksel.cli is imported and its parser built), the calibration
time measured right after it, one record per
command (exit code, exception, wall time, the calibration time around it,
captured output) and the peak resident memory of this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def calibrate() -> float:
    """Seconds of a fixed Python-loop-plus-numpy kernel, best of three.

    Run between commands, it tracks how fast the machine is at that moment:
    on a shared host the speed drifts by tens of percent over seconds, and
    command times follow it.  Fixed work: it does not depend on ranksel.
    """
    import numpy as np

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        a = np.arange(20_000.0)
        for _ in range(30):
            a = np.sqrt(a * 1.000001 + 1.0)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    job = json.loads(sys.argv[1])
    import ranksel.cli as cli

    build_parser = getattr(cli, "_build_parser", None)
    if build_parser is not None:
        build_parser()
    setup_s = time.monotonic() - job["t_spawn"]
    src = os.path.realpath(job["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"ranksel was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if job.get("spans_out"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    # the machine speed right after set-up scales setup_s, and with the next
    # reading the first command's time
    speed = [calibrate()]
    for run_id, argv in enumerate(job["commands"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_run(run_id)
        error = None
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # an uncaught exception is a measured outcome
            error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - start
        speed.append(calibrate())
        results.append({"rc": rc, "error": error, "wall_s": wall_s,
                        "calibration_s": 0.5 * (speed[-2] + speed[-1]),
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})

    if tracer is not None:
        tracer.write(job["spans_out"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "setup_calibration_s": speed[0],
                      "commands": results, "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
