"""The traced benchmark (``benchmarks/tracing.py``) instruments the program by
patching module and class attributes by name.  Renaming one of them must fail
here, not silently break ``benchmarks/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import pytest

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
