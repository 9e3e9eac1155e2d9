"""Layer spans for a traced child run, taken from outside the program.

A traced run replaces module-level names of ``bltnoise.*`` with wrappers that
time each call.  Every wrapper opens a span; a span's self time is its
duration minus the time of the spans opened inside it, so the self times of
all spans add up to the time of the outermost ones.  Spans are aggregated by
metric name in memory and written out once, when the child ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, name, metric): calls whose duration is a span of ``metric``.
TIMED = [
    ("streaming", "_uniform_chunk", "streaming.philox"),
    ("streaming", "ndtri", "streaming.ndtri"),
    ("streaming", "lfilter", "streaming.filter"),
    ("streaming", "write_noise_f64", "streaming.write"),
    ("streaming", "stream_step", "streaming.stream_step"),
    ("error_eval", "sensitivity_of", "error_eval.sensitivity"),
    ("error_eval", "sensitivity_closed", "error_eval.sensitivity"),
    ("error_eval", "rownorm_closed", "error_eval.rownorm"),
    ("optimizer", "optimize_blt", "optimizer.search"),
    ("optimizer", "loss", "optimizer.loss"),
    ("optimizer", "gradient", "optimizer.gradient"),
    ("params", "load_factorization", "params.load"),
    ("rational", "ra_blt_build", "rational.build"),
]
# (module, name, metric, item count): generator functions; each next() is a span.
ITERATED = [
    ("streaming", "_noise_chunks", "streaming.other", "streaming.blocks"),
    ("recursive", "recursive_stream", "recursive.self", "recursive.rows"),
]
# (module, name, count): hot scalar helpers that are counted but not timed.
COUNTED = [
    ("error_eval", "geometric_prefix", "error_eval.geometric_prefix"),
    ("recursive", "_next_noise", "recursive.noise_rows"),
]


class Tracer:
    """Per-metric self time and call counts of nested spans."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.top_s = 0.0  # total duration of outermost spans
        self._open = []  # time covered by the children of each open span
        self._depth = defaultdict(int)
        self.opt_events = []  # "L" loss (barrier on), "F" loss (barrier off), "G" gradient
        self.grad_points = []

    def _close(self, metric, elapsed):
        child = self._open.pop()
        self.self_s[metric] += elapsed - child
        if self._open:
            self._open[-1] += elapsed
        else:
            self.top_s += elapsed

    def span(self, metric, fn, *args, **kwargs):
        """Call ``fn`` inside a span; nested calls of one metric count once."""
        depth = self._depth
        self._open.append(0.0)
        depth[metric] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(metric, time.perf_counter() - t0)
            depth[metric] -= 1
            if not depth[metric]:
                self.calls[metric] += 1

    def timed(self, fn, metric):
        def wrapper(*args, **kwargs):
            return self.span(metric, fn, *args, **kwargs)

        return wrapper

    def iterated(self, fn, metric, count):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._open.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(metric, time.perf_counter() - t0)
                self.calls[count] += 1
                yield item

        return wrapper

    def counted(self, fn, metric):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def optimizer_hooks(self, loss_fn, gradient_fn):
        """Record the loss/gradient call sequence and the gradient points, from
        which backtracks and useful iterations are derived after the run."""

        def loss(theta, theta_hat, n, barrier_weight):
            self.opt_events.append("L" if barrier_weight else "F")
            return loss_fn(theta, theta_hat, n, barrier_weight)

        def gradient(theta, theta_hat, n, barrier_weight):
            self.opt_events.append("G")
            self.grad_points.append([list(map(float, theta)), list(map(float, theta_hat))])
            return gradient_fn(theta, theta_hat, n, barrier_weight)

        return loss, gradient

    def install(self):
        """Wrap every alias of the traced names in the loaded bltnoise modules."""
        mods = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "bltnoise"}

        def replace(module, name, make):
            orig = getattr(mods["bltnoise." + module], name)
            new = make(orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)
            return new

        optimizer = mods["bltnoise.optimizer"]
        loss, gradient = self.optimizer_hooks(optimizer.loss, optimizer.gradient)
        replace("optimizer", "loss", lambda f: loss)
        replace("optimizer", "gradient", lambda f: gradient)
        for module, name, metric in TIMED:
            replace(module, name, lambda f, m=metric: self.timed(f, m))
        for module, name, metric, count in ITERATED:
            replace(module, name, lambda f, m=metric, c=count: self.iterated(f, m, c))
        for module, name, metric in COUNTED:
            replace(module, name, lambda f, m=metric: self.counted(f, m))

    def as_dict(self):
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "top_s": self.top_s,
            "opt_events": "".join(self.opt_events),
            "grad_points": self.grad_points,
        }
