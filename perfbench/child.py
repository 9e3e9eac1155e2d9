"""One timed sample, run in a fresh interpreter with ``src`` on PYTHONPATH.

    python child.py REPORT TRACE cli ARGS...            runs ``blt ARGS...``
    python child.py REPORT TRACE recursive Z.npy ROWS.npy

REPORT receives a JSON record of monotonic timestamps (start, import, first
output, done), the exit code and, with TRACE=1, the layer spans.  The
timestamps use CLOCK_MONOTONIC, which the parent process shares.
"""

import time

T_START = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# The recursive workload: recursive_stream(blt_base_factory(ra_blt_build(D, N1), M),
# N1, LEVELS, M, Z), which has N1**LEVELS rows and consumes
# N1 * (N1**LEVELS - 1) / (N1 - 1) rows of Z.
N1, DEGREE, LEVELS, M = 12, 51, 5, 64
SAMPLE_EVERY = 1024  # output rows kept for the parent's elementwise check
_BUF_ROWS = 4 * SAMPLE_EVERY


def _peak_rss_mb():
    """High-water resident set of this process image.

    ru_maxrss would also count the parent's pages, which the child held
    between fork and exec; VmHWM starts afresh at exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return None


def _call(metric, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _cli_body(argv, rec, span):
    """``blt ARGV``; first output is the first noise block or the search start."""
    cli = sys.modules["bltnoise.cli"]
    streaming = sys.modules["bltnoise.streaming"]
    chunks, search = streaming._noise_chunks, cli.optimize_blt

    def first_block(*args, **kwargs):
        for block in chunks(*args, **kwargs):
            rec["t_first"] = rec["t_first"] or time.monotonic()
            yield block

    def start_search(*args, **kwargs):
        rec["t_first"] = time.monotonic()
        return search(*args, **kwargs)

    streaming._noise_chunks, cli.optimize_blt = first_block, start_search
    return lambda: span("cli", cli.main, argv)


def _recursive_body(args, rec, span):
    """Stream every row; keep their sum of squares and every SAMPLE_EVERY-th row."""
    import numpy as np

    z_path, rows_path = args
    rational = sys.modules["bltnoise.rational"]
    recursive = sys.modules["bltnoise.recursive"]

    def stream():
        z = span("child.input", np.load, z_path)
        factory = recursive.blt_base_factory(rational.ra_blt_build(DEGREE, N1), M)
        gen = recursive.recursive_stream(factory, N1, LEVELS, M, z)
        buf = np.empty((_BUF_ROWS, M))
        buf[0] = next(gen)
        rec["t_first"] = time.monotonic()
        kept, sumsq, rows, j = [], 0.0, 1, 1
        for row in gen:
            if j == _BUF_ROWS:
                sumsq += float(np.einsum("ij,ij->", buf, buf))
                kept.append(buf[::SAMPLE_EVERY].copy())
                j = 0
            buf[j] = row
            j += 1
            rows += 1
        sumsq += float(np.einsum("ij,ij->", buf[:j], buf[:j]))
        kept += [buf[:j:SAMPLE_EVERY], buf[j - 1 : j]]
        np.save(rows_path, np.vstack(kept))
        rec["rows"], rec["sumsq"] = rows, sumsq
        return 0

    return lambda: span("child", stream)


def main():
    report, trace, kind, *args = sys.argv[1:]
    rec = {"t_start": T_START, "t_first": None, "trace": None}
    tracer = None
    span = _call
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        span = tracer.span
    t0 = time.monotonic()
    span("cli.import", importlib.import_module, "bltnoise.cli" if kind == "cli" else "bltnoise")
    rec["t_import"] = [t0, time.monotonic()]
    if tracer:
        tracer.install()
    body = (_cli_body if kind == "cli" else _recursive_body)(args, rec, span)
    rec["rc"] = body()
    rec["t_done"] = time.monotonic()
    rec["peak_rss_mb"] = _peak_rss_mb()
    if tracer:
        rec["trace"] = tracer.as_dict()
    with open(report, "w") as fh:
        json.dump(rec, fh)
    return rec["rc"]


if __name__ == "__main__":
    sys.exit(main())
