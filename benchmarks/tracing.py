"""Outside-in instrumentation of ``anthobs`` for the traced benchmark passes.

Nothing here edits the program: counters and spans are wrappers installed on
module (and class) attributes for the duration of one pass, and every patched
attribute is restored on exit.  Calls that go through a module attribute
(``forcing.seasonal``, ``runner.simulate``, ...) are seen, including calls
inside the defining module, whose globals are the module's attributes.

Two passes, because wrappers on per-step functions distort the scalar path:

* the counting pass installs counter-only wrappers and yields exact counts;
* the sampling pass installs a stack sampler thread, which attributes each
  sample to the innermost ``anthobs`` frame (self time per module), plus
  spans around the few per-scenario calls ``runner`` makes (phase times).
"""

from __future__ import annotations

import collections
import sys
import threading
import time
from pathlib import Path

#: The modules of ``src/anthobs`` that the workloads exercise.
LAYERS = ("forcing", "ode", "pde", "systems", "stepping", "metrics", "runner",
          "svgplot", "config")

#: Runner phase -> (module name, attribute) of the calls timed as that phase.
PHASES = {
    "simulate": [("runner", "simulate")],
    "sensitivity": [("runner", "_volume_sensitivity")],
    "diagnostics": [("ode", "check_conditions"), ("pde", "check_conditions_spatial")],
    "errors": [("metrics", "error_series_ode"), ("metrics", "error_series_pde")],
    "envelopes": [("runner", "_envelope_checks_ode"), ("runner", "_envelope_checks_pde")],
    "artifacts": [("config", "write_config"), ("runner", "_ode_rows"),
                  ("runner", "_pde_rows"), ("runner", "_write_csv"),
                  ("runner", "_write_record")],
    "plot": [("runner", "emit_plot")],
    "recheck": [("runner", "check_artifacts")],
}

#: Seconds between two stack samples.
SAMPLE_INTERVAL_S = 0.002


def modules():
    """The ``anthobs`` layer modules by short name."""
    import importlib

    return {name: importlib.import_module(f"anthobs.{name}") for name in LAYERS}


class Patches:
    """Attribute replacements that are undone, in reverse order, by ``restore``."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self.saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)


def _counted(fn, counts: collections.Counter, key: str):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


class CountingPass:
    """Exact call and work counts; use as a context manager around a sweep."""

    def __init__(self):
        self.counts: collections.Counter = collections.Counter()
        self.patches = Patches()

    def __enter__(self):
        mods = modules()
        forcing, ode, pde = mods["forcing"], mods["ode"], mods["pde"]
        systems, runner = mods["systems"], mods["runner"]
        c = self.counts
        for name in forcing.__all__:
            fn = getattr(forcing, name)
            if callable(fn):
                self.patches.set(forcing, name, _counted(fn, c, "forcing.calls"))
        for module, name in ((ode, "model_rhs"), (ode, "observer_rhs"),
                             (pde, "spatial_coefficients"),
                             (mods["metrics"], "envelope_series"),
                             (mods["svgplot"], "line_plot"),
                             (mods["config"], "load_config")):
            key = f"{module.__name__.rsplit('.', 1)[1]}.{name}.calls"
            self.patches.set(module, name, _counted(getattr(module, name), c, key))
        # the scalar loop reads measure_scalar; the array interface of the
        # within-host system delegates to it, so the two never double count
        for cls, name in ((systems.WithinHostSystem, "measure_scalar"),
                          (systems.SpatialSystem, "measure")):
            self.patches.set(cls, name, _counted(getattr(cls, name), c,
                                                 "systems.measure.calls"))

        laplacian = pde.laplacian_neumann

        def counted_laplacian(f, *args, **kwargs):
            out = laplacian(f, *args, **kwargs)
            c["pde.laplacian_neumann.calls"] += 1
            c["pde.laplacian_neumann.bytes_computed"] += f.nbytes + out.nbytes
            return out
        self.patches.set(pde, "laplacian_neumann", counted_laplacian)

        simulate = runner.simulate

        def counted_simulate(*args, **kwargs):
            traj = simulate(*args, **kwargs)
            meta = traj.meta
            steps = round((meta["t1"] - meta["t0"]) / meta["dt"])
            c["stepping.steps"] += steps
            if kwargs.get("truth_only", False):
                c["stepping.truth_only_steps"] += steps
            c["stepping.recorded_bytes"] += sum(
                a.nbytes for a in (traj.times, traj.truth, traj.observer,
                                   traj.measurements) if a is not None)
            return traj
        self.patches.set(runner, "simulate", counted_simulate)
        return self

    def __exit__(self, *exc):
        self.patches.restore()
        return False


class StackSampler:
    """Low-rate sampler thread: innermost ``anthobs`` frame of one thread.

    Samples with no ``anthobs`` frame on the stack count under ``None``.  The
    interpreter hands the thread the lock at most every switch interval, so
    the effective rate is bounded by ``sys.getswitchinterval()`` as well.
    """

    def __init__(self, package_dir: str | Path):
        self.prefix = str(Path(package_dir).resolve()) + "/"
        self.counts: collections.Counter = collections.Counter()
        self._stop = threading.Event()
        self._target = threading.get_ident()
        self._thread = threading.Thread(target=self._run, name="stack-sampler",
                                        daemon=True)

    def _innermost(self, frame):
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename.startswith(self.prefix):
                return filename[len(self.prefix):].removesuffix(".py")
            frame = frame.f_back
        return None

    def _run(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            frame = sys._current_frames().get(self._target)
            self.counts[self._innermost(frame)] += 1

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False


class PhaseSpans:
    """Wall time of runner phases; a call nested inside a timed call counts
    only towards the outer phase (sensitivity runs call ``simulate``)."""

    def __init__(self):
        self.totals = {name: 0.0 for name in PHASES}
        self.patches = Patches()
        self._depth = 0

    def _timed(self, fn, phase: str):
        def wrapper(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.totals[phase] += time.perf_counter() - start
                self._depth -= 1
        return wrapper

    def __enter__(self):
        mods = modules()
        for phase, targets in PHASES.items():
            for module_name, attr in targets:
                module = mods[module_name]
                self.patches.set(module, attr, self._timed(getattr(module, attr), phase))
        return self

    def __exit__(self, *exc):
        self.patches.restore()
        return False
