"""Run one simulator operation with a span around each call into a layer.

    PYTHONPATH=src python3 bench/tracer.py SPANS.json cli ARGS...
    PYTHONPATH=src python3 bench/tracer.py SPANS.json esweep ARGS...

The first form does what `python -m torusqubit.cli ARGS...` does, the second
what `bench/esweep.py ARGS...` does.  Before running, every public function
of the eight layer modules is replaced, in every module namespace that binds
it, by a wrapper that records a span: name "<layer>.<function>", start and
end (time.perf_counter seconds of this process) and the id of the enclosing
span.  Besides spans it counts right-hand-side evaluations of the dynamics
layer's solve_ivp calls, Monte-Carlo samples of errors.average_gate_infidelity,
and the tracemalloc peak of each spectral.solve_sector call.  Everything is
kept in memory and written to SPANS.json when the operation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc

LAYERS = ("model", "potential", "spectral", "reduction", "dynamics", "control", "errors", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters = {"dynamics.rhs_evals": 0, "errors.samples": 0}
        self.solve_peaks: list[list[int]] = []  # [n_points, peak bytes] per solve_sector

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"id": len(self.spans), "parent": self.stack[-1] if self.stack else None,
                      "name": name, "start": time.perf_counter(), "end": None}
            self.spans.append(record)
            self.stack.append(record["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def memory_peak(self, fn):
        """Outside the span, so starting and stopping tracemalloc is not timed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            disc = kwargs.get("disc", args[1] if len(args) > 1 else None)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.solve_peaks.append([getattr(disc, "n_points", 0), peak])

        return wrapper

    def count(self, key: str, fn, amount):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters[key] += amount(result)
            return result

        return wrapper

    def install(self) -> None:
        import torusqubit

        modules = {layer: importlib.import_module(f"torusqubit.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self.span(f"{layer}.{attr}", obj)
        solve = modules["spectral"].solve_sector
        wrapped[solve] = self.memory_peak(wrapped[solve])
        average = modules["errors"].average_gate_infidelity
        wrapped[average] = self.count("errors.samples", wrapped[average], lambda r: r.n_samples)
        for namespace in (torusqubit, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(namespace, attr, wrapped[obj])
        dynamics = modules["dynamics"]
        dynamics.solve_ivp = self.count("dynamics.rhs_evals", dynamics.solve_ivp, lambda sol: sol.nfev)

    def dump(self, path: str) -> None:
        payload = {"spans": self.spans, "counters": self.counters, "solve_peaks": self.solve_peaks}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def main(argv: list[str]) -> int:
    spans_path, target, *args = argv
    tracer = Tracer()
    tracer.install()
    try:
        if target == "cli":
            import torusqubit.cli

            return torusqubit.cli.main(args)
        if target == "esweep":
            import esweep

            return esweep.main(args)
        raise SystemExit(f"unknown target {target!r}")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
