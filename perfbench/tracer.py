"""Out-of-process tracer: spans around calls into framelets' public functions.

The tracer lives outside the program.  It replaces a function at *every*
``framelets.*`` module binding of the same function object, because the
package imports functions by name (``forward_matrices`` is bound in
``netbuild``, ``analysis`` and ``landscape``; ``rng`` in five modules), so
patching only the defining module would miss most calls.

Each call becomes one span ``[name, start, end, parent]`` kept in memory
until the run ends; ``parent`` is the index of the innermost enclosing
traced call, or -1.  Self time is a span's duration minus the durations of
its direct children; calls are single-threaded and nested, so children
never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: traced functions, as "<module>.<function>" under the framelets package
TARGETS = (
    "seeding.rng",
    "netbuild.random_bank",
    "netbuild.realize",
    "netbuild.forward_matrices",
    "frames.frame_bank",
    "frames.frame_residual",
    "analysis.region_census",
    "analysis.spectral_norm",
    "analysis.extract_pattern",
    "analysis.linear_rep",
    "analysis.jacobian_analytic",
    "analysis.fd_jacobian",
    "landscape.loss",
    "landscape.tap_gradients",
    "landscape.train_gd",
    "landscape.certify_bounds_skip",
    "landscape.certify_bounds_enc",
    "landscape.check_stationarity",
    "cli.execute",
    "cli.write_report",
)


class Tracer:
    """Context manager that records a span for each call of a TARGETS function."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def __enter__(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "framelets" or name.startswith("framelets."))]
        for target in TARGETS:
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(importlib.import_module(f"framelets.{module_name}"), func_name)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def summary(self) -> dict:
        """Per name: ``calls``, total seconds ``total_s`` and ``self_s``."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_s):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return dict(out)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made (at any depth) inside a call of ``ancestor``."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count
