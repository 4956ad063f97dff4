"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_harness.py

The traced tests run whole workloads in-process (about ninety seconds in
total on a 2-core Xeon); they check the counting instrumentation itself and
the bypass predictions the per-layer metrics rely on.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import gate  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

child.import_anthobs(ROOT)

from anthobs import runner, systems  # noqa: E402
from anthobs.params import ParameterSet  # noqa: E402

STEPS = 10_000  # reference grid: t in [0, 1] at dt = 1e-4


def attribute_snapshot() -> dict:
    """Identity of every attribute the instrumentation may touch."""
    owners = list(tracing.modules().values()) + [systems.WithinHostSystem,
                                                 systems.SpatialSystem]
    return {(repr(o), k): v for o in owners for k, v in list(vars(o).items())}


def traced_pass(tmp_path, workload, mode, name="out", build=None):
    before = attribute_snapshot()
    result = child.run_pass(ROOT, workload, 0, mode, tmp_path / name, build=build)
    after = attribute_snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, f"attributes not restored: {changed}"
    return result


# --- inputs ----------------------------------------------------------------

def test_default_seed_reproduces_the_reference_inputs():
    p, ode = workloads.build("ode-sweep", workloads.DEFAULT_SEED)
    assert ode == runner.scenario_matrix("paper-ode", p)
    p, rk4 = workloads.build("ode-rk4-fd", workloads.DEFAULT_SEED)
    assert {(s.theta0, s.v0, s.rho0, s.k1, s.k2) for s in rk4} < \
        {(s.theta0, s.v0, s.rho0, s.k1, s.k2) for s in ode}
    assert {(s.theta0, s.v0) for s in rk4} == set(workloads.FIGURE_PAIRS)
    assert {(s.scheme, s.measurement) for s in rk4} == {("rk4", "finite_difference")}
    p, pde = workloads.build("pde-slice", workloads.DEFAULT_SEED)
    full = runner.scenario_matrix("paper-pde", p)
    assert p.seed == ParameterSet().seed
    assert set(pde) <= set(full)
    assert {(s.k1, s.k2) for s in pde} == set(workloads.GAIN_PAIRS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_are_deterministic_sized_and_covered_by_the_reference(name):
    reference = gate.load_reference()
    sizes = set()
    for seed in range(50):
        p, scenarios = workloads.build(name, seed)
        assert workloads.build(name, seed) == (p, scenarios)
        assert len({s.label for s in scenarios}) == len(scenarios)
        assert all(workloads.reference_key(s, p) in reference for s in scenarios)
        sizes.add(len(scenarios))
    assert len(sizes) == 1


def test_reference_covers_every_drawable_scenario():
    assert len(make_reference.all_inputs()) == len(gate.load_reference())


# --- correctness gate --------------------------------------------------------

def _fake_sweep(tmp_path, reference):
    """A result dict and artifact tree for three passing ODE scenarios."""
    p, scenarios = workloads.build("ode-sweep", workloads.DEFAULT_SEED)
    scenarios = scenarios[:3]
    keys = [workloads.reference_key(s, p) for s in scenarios]
    for s in scenarios:
        (tmp_path / s.label).mkdir()
        (tmp_path / s.label / "series.csv").write_text("t\n0\n")
    (tmp_path / "manifest.txt").write_text(
        "".join(f"{s.label} ok\n" for s in scenarios))
    records = [{"label": s.label, "status": "ok", "error": None,
                "checks": {"exact_law": "pass"},
                "final_abs_err": reference[k][0], "final_rel_err": reference[k][1]}
               for s, k in zip(scenarios, keys)]
    return {"labels": [s.label for s in scenarios], "keys": keys,
            "records": records, "problems": []}


@pytest.mark.parametrize("damage", ["status", "verdict", "problem", "manifest",
                                    "series", "drift", "reference"])
def test_gate_flags_each_failure_kind(tmp_path, damage):
    reference = gate.load_reference()
    result = _fake_sweep(tmp_path, reference)
    assert gate.failures(result, tmp_path, reference) == {}
    label, rec = result["labels"][1], result["records"][1]
    if damage == "status":
        rec["status"] = "failed"
    elif damage == "verdict":
        rec["checks"]["exact_law"] = "fail"
    elif damage == "problem":
        result["problems"].append(f"{tmp_path / label}: abs_err column does not match")
    elif damage == "manifest":
        (tmp_path / "manifest.txt").write_text(
            "".join(f"{other} ok\n" for other in result["labels"] if other != label))
    elif damage == "series":
        (tmp_path / label / "series.csv").unlink()
    elif damage == "drift":
        rec["final_abs_err"] += 1e-6  # beyond ABS_TOL + REL_TOL * |ref| while |ref| < 1
    elif damage == "reference":
        reference = {k: v for k, v in reference.items() if k != result["keys"][1]}
    assert set(gate.failures(result, tmp_path, reference)) == {label}


def test_injected_failing_scenario_is_counted_and_fails_the_command(monkeypatch):
    def injected(name, seed):
        p, scenarios = workloads.build(name, seed)
        # dt = 1e-4 breaks the diffusion bound 0.9 h^2 / (4 D) of a 512^2 grid
        bad = runner.make_scenario(p, "pde", 0.05, 0.5, 0.05,
                                   0.0, 0.0, dim=2, n=512)
        return p, scenarios[:1] + [bad]

    def fake_spawn(workload, seed, mode, out_dir):
        return child.run_pass(ROOT, workload, seed, mode, out_dir,
                              t_spawn=time.perf_counter(), build=injected)

    monkeypatch.setattr(run, "spawn", fake_spawn)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(["--workload", "ode-sweep", "--seconds", "0"])
    final = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert code == 1
    assert final["correct"] is False
    assert final["attempted"] == 2 and final["failed"] == 1
    assert "pde_th0.05_v0.5_rho0.05_k1_0_k2_0_2d512" in stdout.getvalue()
    assert not (ROOT / ".bench_tmp").exists()


# --- traced passes -----------------------------------------------------------

@pytest.fixture(scope="module")
def ode_counts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ode")
    return [traced_pass(tmp, "ode-sweep", "count", f"run{i}") for i in range(2)]


def test_counts_repeat_exactly(ode_counts):
    first, second = ode_counts
    assert first["counts"] == second["counts"]
    assert (first["files_written"], first["bytes_written"]) == \
        (second["files_written"], second["bytes_written"])


def _expected_steps(result):
    return len(result["labels"]) * STEPS + result["sensitivity_steps"]


def test_ode_sweep_counts_and_bypasses(ode_counts):
    c = ode_counts[0]["counts"]
    assert c["stepping.steps"] == _expected_steps(ode_counts[0]) == 32 * STEPS
    assert c["ode.model_rhs.calls"] == c["stepping.steps"]  # one RHS per Euler step
    assert not [k for k, v in c.items() if k.startswith("pde.") and v]
    assert c["metrics.envelope_series.calls"] > 0


def test_ode_rk4_fd_counts_and_bypasses(tmp_path):
    c = traced_pass(tmp_path, "ode-rk4-fd", "count")["counts"]
    assert c["stepping.steps"] == 16 * STEPS
    assert c["ode.model_rhs.calls"] == 4 * c["stepping.steps"]
    assert c["ode.observer_rhs.calls"] == 4 * c["stepping.steps"]
    assert c.get("metrics.envelope_series.calls", 0) == 0
    assert not [k for k, v in c.items() if k.startswith("pde.") and v]


def test_pde_slice_steps_include_the_sensitivity_runs(tmp_path):
    result = traced_pass(tmp_path, "pde-slice", "count")
    c = result["counts"]
    assert c["stepping.steps"] == _expected_steps(result) == 4 * STEPS + 2 * 2 * STEPS
    assert c["stepping.truth_only_steps"] == result["sensitivity_steps"]
    assert c["pde.laplacian_neumann.calls"] > 0


def test_sampling_pass_restores_and_attributes(tmp_path):
    def small(name, seed):
        p, scenarios = workloads.build(name, seed)
        return p, scenarios[:2]
    result = traced_pass(tmp_path, "ode-sweep", "sample", build=small)
    assert sum(result["samples"].values()) > 0
    assert result["phases"]["simulate"] > 0.0
    assert result["phases"]["sensitivity"] == 0.0
