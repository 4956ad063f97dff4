"""The traced benchmark (``benchmarks/tracing.py``) instruments the program by
patching module and class attributes by name.  Renaming one of them must fail
here, not silently break ``benchmarks/run.py --trace 1``; so must a class patch
that counts a measurement twice or leaves an attribute behind."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from anthobs import Grid, ParameterSet, SpatialParameterSet, SpatialSystem, WithinHostSystem
from anthobs import simulate

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched(instrument):
    """First saved original of every attribute an entered pass replaced."""
    out = {}
    for owner, name, original in instrument.patches.saved:
        out.setdefault((owner, name), original)
    return out


@pytest.mark.parametrize("kind", ["CountingPass", "PhaseSpans"])
def test_every_patch_applies_and_is_restored(tracing, kind):
    instrument = getattr(tracing, kind)()
    with instrument:  # raises AttributeError on a missing attribute
        patched = _patched(instrument)
        assert patched
        for (owner, name), original in patched.items():
            assert getattr(owner, name) is not original, f"{name} not patched"
    for (owner, name), original in patched.items():
        assert getattr(owner, name) is original, f"{name} not restored"


def test_named_targets_exist(tracing):
    mods = tracing.modules()
    with tracing.CountingPass() as counting:
        counted = {(getattr(o, "__name__", None), n) for o, n in _patched(counting)}
    with tracing.PhaseSpans() as spans:
        timed = {(o.__name__, n) for o, n in _patched(spans)}
    for module, name in (("anthobs.ode", "check_conditions"),
                         ("anthobs.pde", "check_conditions_spatial"),
                         ("anthobs.runner", "_volume_sensitivity")):
        assert (module, name) in timed
    for owner, name in (("anthobs.pde", "spatial_coefficients"),
                        ("anthobs.pde", "laplacian_neumann"),
                        ("anthobs.ode", "model_rhs"), ("anthobs.ode", "observer_rhs"),
                        ("WithinHostSystem", "measure_scalar"), ("SpatialSystem", "measure")):
        assert (owner, name) in counted
    assert set(mods) == set(tracing.LAYERS)


def _class_keys():
    return {cls: set(vars(cls)) for cls in (WithinHostSystem, SpatialSystem)}


#: taken at collection, before any pass runs: a pass that leaves an attribute
#: behind would otherwise hide it from the tests that run after it
CLASS_KEYS = _class_keys()


@pytest.mark.parametrize("kind", ["CountingPass", "PhaseSpans"])
def test_system_classes_keep_their_attributes(tracing, kind):
    # a patch of an inherited name leaves a new attribute on the patched class
    with getattr(tracing, kind)():
        pass
    assert _class_keys() == CLASS_KEYS


@pytest.mark.parametrize("run", ["within_host", "within_host_batch", "spatial_2d"])
def test_each_measurement_counts_once(tracing, run):
    p = ParameterSet()
    make = {
        "within_host": lambda: WithinHostSystem(p, 0.75, 0.5, 0.25),
        "within_host_batch": lambda: WithinHostSystem(
            p, [0.75, 0.05], [0.5, 0.05], [0.25, 0.05],
            gains=(np.array([0.0, 1e3]), np.array([0.0, 1e3]))),
        "spatial_2d": lambda: SpatialSystem(SpatialParameterSet(base=p), Grid(2, 4),
                                            0.75, 0.5, 0.75),
    }[run]
    n_steps = 10
    with tracing.CountingPass() as counting:
        simulate(make(), 0.0, n_steps * p.dt, p.dt)
    assert counting.counts["systems.measure.calls"] == n_steps + 1
