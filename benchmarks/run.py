"""Outside-in benchmark of the anthobs reference sweeps.

    python3 benchmarks/run.py --workload ode-sweep|pde-slice|ode-rk4-fd|all
        [--seed N] [--seconds S] [--trace 0|1]

Drives the public ``anthobs.runner`` API the way a researcher reproduces and
re-verifies the study: ``sweep(..., workers=1)``, then ``check_artifacts``.
Every repetition runs in a fresh child process (``child.py``), one at a
time, writing into a fresh temporary directory under ``.bench_tmp/`` of the
checkout that is removed afterwards.

``--trace 0`` repeats the untraced sweep until ``--seconds`` have passed
(at least once) and reports the end-to-end metrics.  ``--trace 1``
runs one untraced, one counting and one sampling repetition and reports the
per-layer metrics, with each traced pass's overhead against the untraced
one.  Every sweep goes through the correctness gate (``gate.py``); the
command exits 1 when any scenario fails it, 2 on a usage error or when the
program's sources are absent.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up samples per untraced run (sweep children count; the rest are
#: set-up-only children).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0
CALIBRATION_N = 300_000
MAX_FAILURES_SHOWN = 10

#: Notes printed beside per-layer metrics that are derived, not measured.
NOTES = {"pde.laplacian_neumann.bytes_computed":
         "computed from array sizes (input + output nbytes), not measured traffic"}

#: Metric names and units, as declared in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def spawn(workload: str, seed: int, mode: str, out_dir: Path) -> dict:
    """Run one repetition in a fresh child process and return its result."""
    result_path = out_dir.with_suffix(".json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(out_dir.parent),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("ANTHOBS_OUT", None)
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
         "--workload", workload, "--seed", str(seed), "--mode", mode,
         "--out", str(out_dir), "--t-spawn", repr(t_spawn),
         "--result", str(result_path)],
        cwd=out_dir.parent, env=env)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{mode} child for {workload} exited with {code}")
    return json.loads(result_path.read_text())


def calibration_s() -> float:
    """Drift probe: a fixed pure-Python loop; reported, never used to normalise."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_N):
        acc += math.sin(i * 1e-3) * (i % 7)
    return time.perf_counter() - start


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def git_commit() -> str | None:
    """``git rev-parse HEAD`` of the checkout, not of a repository above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def machine_metadata() -> dict:
    import importlib.metadata as md

    cpu = (_read("/proc/cpuinfo") or "").splitlines()
    model = next((line.split(":", 1)[1].strip() for line in cpu
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    commit = git_commit()
    if commit is None:
        print(f"warning: no git commit found for {ROOT}; recording git_commit=null",
              file=sys.stderr)

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "git_commit": commit,
    }


def summarize(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n, "tail_pct": None, "tail": None}
    pct = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if pct > 50:
        out["tail_pct"] = pct
        out["tail"] = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return out


class Run:
    """Repetitions of one workload and the failures the gate found in them."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.reference = gate.load_reference()
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.count = 0

    def repetition(self, mode: str) -> dict:
        self.count += 1
        out = self.tmp / f"{self.workload}-{mode}-{self.count}"
        try:
            result = spawn(self.workload, self.seed, mode, out)
            if mode != "setup":
                self.attempted += len(result["labels"])
                for label, why in gate.failures(result, out, self.reference).items():
                    self.failed[f"{mode}-{self.count}/{label}"] = why
            return result
        finally:
            shutil.rmtree(out, ignore_errors=True)


def measure_untraced(run: Run, seconds: float) -> dict[str, list[float]]:
    samples = {name: [] for name in END_TO_END}
    start = time.perf_counter()
    while not samples["sweep_s"] or time.perf_counter() - start < seconds:
        res = run.repetition("plain")
        samples["setup_s"].append(res["setup_s"])
        samples["sweep_s"].append(res["sweep_s"])
        samples["check_s"].extend(res["check_s"])
        samples["cell_steps_per_s"].append(res["cell_steps"] / res["sweep_s"])
        samples["peak_rss_mb"].append(res["peak_rss_mb"])
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        samples["setup_s"].append(run.repetition("setup")["setup_s"])
    return samples


def measure_traced(run: Run) -> dict[str, float]:
    plain = run.repetition("plain")
    counted = run.repetition("count")
    sampled = run.repetition("sample")
    c = collections.Counter(counted["counts"])
    steps = c["stepping.steps"]
    pde_scenarios = sum(label.startswith("pde") for label in counted["labels"])
    untraced = plain["sweep_s"] + plain["check_s"][0]
    m = {
        "stepping.steps": steps,
        "stepping.truth_only_steps": c["stepping.truth_only_steps"],
        "stepping.sensitivity_share": c["stepping.truth_only_steps"] / steps,
        "stepping.recorded_bytes": c["stepping.recorded_bytes"],
        "forcing.calls": c["forcing.calls"],
        "forcing.calls_per_step": c["forcing.calls"] / steps,
        "ode.model_rhs.calls": c["ode.model_rhs.calls"],
        "ode.observer_rhs.calls": c["ode.observer_rhs.calls"],
        "ode.rhs_evals_per_step": c["ode.model_rhs.calls"] / steps,
        "pde.laplacian_neumann.calls": c["pde.laplacian_neumann.calls"],
        "pde.laplacian_neumann.bytes_computed":
            c["pde.laplacian_neumann.bytes_computed"],
        "pde.spatial_coefficients.per_scenario":
            c["pde.spatial_coefficients.calls"] / max(pde_scenarios, 1),
        "systems.measure.calls": c["systems.measure.calls"],
        "metrics.envelope_series.calls": c["metrics.envelope_series.calls"],
        "svgplot.line_plot.calls": c["svgplot.line_plot.calls"],
        "config.load_config.calls": c["config.load_config.calls"],
        "runner.files_written": counted["files_written"],
        "runner.bytes_written": counted["bytes_written"],
    }
    for phase, total in sampled["phases"].items():
        m[f"runner.phase.{phase}_s"] = total
    total_samples = sum(sampled["samples"].values())
    traced = sampled["traced_s"]
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = traced * sampled["samples"].get(layer, 0) / max(total_samples, 1)
    m["trace.samples"] = total_samples
    m["trace.overhead_frac"] = traced / untraced - 1.0
    m["trace.count_overhead_frac"] = (
        counted["sweep_s"] + counted["check_s"][0]) / untraced - 1.0
    m["trace.unattributed_s"] = traced - sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    probe = [calibration_s()]
    try:
        run = Run(workload, seed, tmp)
        if trace:
            layer = measure_traced(run)
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
            summary = {}
        else:
            samples = measure_untraced(run, seconds)
            summary = {name: dict(summarize(v), unit=END_TO_END[name])
                       for name, v in samples.items()}
            metrics = {name: {"value": s["median"], "unit": s["unit"]}
                       for name, s in summary.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    probe.append(calibration_s())
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "attempted": run.attempted, "failed": len(run.failed),
        "error_rate": len(run.failed) / max(run.attempted, 1),
        "failures": run.failed, "summary": summary, "metrics": metrics,
        "calibration_s": probe,
    }


def print_report(rep: dict) -> None:
    print(f"== {rep['workload']}  seed={rep['seed']}  trace={rep['trace']}"
          f"  calibration_s={rep['calibration_s'][0]:.4f}/{rep['calibration_s'][1]:.4f}")
    if rep["summary"]:
        for name, s in rep["summary"].items():
            tail = (f"p{s['tail_pct']}={s['tail']:.6g}" if s["tail_pct"]
                    else "tail n/a (needs > 20 samples)")
            print(f"  {name:<18} {s['unit']:<6} median={s['median']:<12.6g}"
                  f" {tail:<30} n={s['n']}")
    else:
        for name, m in rep["metrics"].items():
            note = f"  ({NOTES[name]})" if name in NOTES else ""
            print(f"  {name:<40} {m['unit']:<6} {m['value']:.6g}{note}")
    print(f"  {'error_rate':<18} {'ratio':<6} {rep['error_rate']:.6g}"
          f"  ({rep['failed']} failed of {rep['attempted']} attempted)")
    shown = list(rep["failures"].items())
    for label, why in shown[:MAX_FAILURES_SHOWN]:
        print(f"  FAILED {label}: {why}")
    if len(shown) > MAX_FAILURES_SHOWN:
        print(f"  ... and {len(shown) - MAX_FAILURES_SHOWN} more failures")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "anthobs" / "__init__.py").is_file():
        print(f"no anthobs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    print(json.dumps({"meta": machine_metadata(), "reports": reports}))
    for rep in reports:
        print_report(rep)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in reports for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
