"""Run one gausscurv CLI command in a fresh interpreter and record it.

Usage: ``python3 bench/child.py SPEC_JSON`` where the spec holds ``t0`` (the
parent's ``time.monotonic()`` just before it started this process), ``trace``
(0 or 1), ``record`` (where to write the result) and ``argv`` (the CLI
arguments).  ``run.py`` starts it; it is not meant to be run by hand.

``setup_s`` is the time from process start until ``gausscurv.cli`` is
imported; CLOCK_MONOTONIC is shared by every process on the machine.
``wall_s`` is the time inside ``cli.run``; ``ref_s`` is the time of
``reference_work`` run once just before and once just after it, which tracks
how fast the machine ran meanwhile.  The package is imported from the
``src`` directory next to this benchmark and nowhere else.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("GAUSSCURV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def reference_work() -> float:
    """Seconds taken by a fixed mix of pure-Python, BLAS and numpy work.

    It never touches gausscurv, so it measures only how fast the machine runs
    at that moment.  ``run.py`` divides the program's times by it.  Changing
    it changes the unit of every normalised metric.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(900_000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
    x = np.linspace(0.0, 4.0, 1 << 14)
    for _ in range(60):
        a = np.tanh(a @ a.T / 128.0 + 0.1)
        np.fft.rfft(np.sin(x * 7.0))
        np.exp(-0.5 * x * x).sum()
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    try:
        from gausscurv import cli
    except ImportError as exc:
        print(f"cannot import gausscurv from {src}: {exc}", file=sys.stderr)
        return 2
    setup_s = time.monotonic() - spec["t0"]
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"gausscurv was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.install()
    config = cli.parse_config(spec["argv"])
    error = None
    ref_s = reference_work()
    start = time.perf_counter()
    try:
        cli.run(config)
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    ref_s += reference_work()

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "error": error,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            **{var: os.environ.get(var) for var in THREAD_VARS},
        },
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.dump(spec["spans"])
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
