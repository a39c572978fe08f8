"""Per-layer spans and counts for one process, recorded from outside the
package by replacing module attributes.

Every public function defined in a layer module is wrapped, and the wrapper
is bound under every name in every ``gfda`` module that holds the original
function (``gfda.cli`` imports ``evaluate`` and ``gfda_linear_form`` by
name, for example), so no call site escapes.  Eigensolvers in numpy and
scipy are wrapped as counters only: they add to the order statistics but
open no span, so LAPACK time stays in the self time of the gfda function
that called them.
"""

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("data", "cli", "subspace", "fisher", "linalg", "classify")

# (module, attribute) of every eigensolver entry counted by
# linalg.eigh.max_order / order3_sum, besides gfda.linalg.sym_eig itself.
EIGENSOLVERS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
                ("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"))

COUNTS = ("data.bytes_read", "cli.model_bytes", "classify.evaluate.samples",
          "linalg.eigh.calls", "linalg.eigh.max_order",
          "linalg.eigh.order3_sum")


class Tracer:
    """Aggregates spans per function: calls, inclusive and self seconds."""

    def __init__(self):
        self.stats = {}          # "layer.function" -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []         # [name, start, child_seconds]
        self._in_eigensolver = False
        self._protocols = 0      # open cli.run_protocol spans
        self._last_load_end = None
        self.first_rep_s = None

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name, args):
        _, start, child = self._stack.pop()
        end = time.perf_counter()
        total = end - start
        if self._stack:
            self._stack[-1][2] += total
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += total
        entry[2] += total - child
        self._count(name, args, end)

    def _count(self, name, args, end):
        if name == "data.load_dataset":
            self.counts["data.bytes_read"] += os.path.getsize(args[0])
            self._last_load_end = end
        elif name == "cli.save_model":
            self.counts["cli.model_bytes"] += os.path.getsize(args[0])
        elif name == "classify.evaluate":
            self.counts["classify.evaluate.samples"] += len(args[1])
            # The first repetition of a process: split, build and score,
            # from the end of the protocol's dataset loads to the end of
            # its first evaluation.
            if (self.first_rep_s is None and self._protocols
                    and self._last_load_end is not None):
                self.first_rep_s = end - self._last_load_end

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            protocol = name == "cli.run_protocol"
            self._protocols += protocol
            try:
                return fn(*args, **kwargs)
            finally:
                self._protocols -= protocol
                self._exit(name, args)
        return traced

    # -- eigensolver counters -----------------------------------------------

    def count_eigensolver(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self._in_eigensolver:
                return fn(a, *args, **kwargs)
            shape = getattr(a, "shape", None) or (len(a),)
            n = shape[-1]
            batch = 1
            for d in shape[:-2]:
                batch *= d
            self.counts["linalg.eigh.calls"] += batch
            self.counts["linalg.eigh.max_order"] = max(
                self.counts["linalg.eigh.max_order"], n)
            self.counts["linalg.eigh.order3_sum"] += batch * n ** 3
            self._in_eigensolver = True
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._in_eigensolver = False
        return counted

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer's public functions wherever they are bound."""
        for layer in LAYERS:
            importlib.import_module(f"gfda.{layer}")
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"gfda.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrapped = self.wrap(f"{layer}.{attr}", fn)
                    replacements[id(fn)] = (fn, wrapped)
        sym_eig = sys.modules["gfda.linalg"].sym_eig
        for modname, attr in EIGENSOLVERS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr)
            replacements[id(fn)] = (fn, self.count_eigensolver(fn))
        # sym_eig is both a span and a counted eigensolver.
        fn, wrapped = replacements[id(sym_eig)]
        replacements[id(sym_eig)] = (fn, self.count_eigensolver(wrapped))

        targets = [m for name, m in sys.modules.items()
                   if name == "gfda" or name.startswith("gfda.")]
        targets += [importlib.import_module(m) for m, _ in EIGENSOLVERS]
        for module in targets:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def summary(self):
        return {"functions": self.stats, "counts": self.counts,
                "first_rep_s": self.first_rep_s}
