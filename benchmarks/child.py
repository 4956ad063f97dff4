"""One benchmark repetition, run in a fresh process by ``run.py``.

    python3 benchmarks/child.py --root ROOT --workload NAME --seed N
        --mode setup|plain|count|sample --out DIR --t-spawn T --result FILE

``--t-spawn`` is the parent's ``time.perf_counter()`` just before it started
this process (``CLOCK_MONOTONIC`` on Linux, shared by all processes), so
``setup_s`` covers interpreter start, the ``anthobs`` import (numpy, scipy)
and building the validated scenario list.  ``plain`` runs the sweep and
repeated ``check_artifacts`` untraced; ``count`` and ``sample`` run one
sweep and one check under the counting or sampling instrumentation.  The
result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

#: ``check_artifacts`` repeats until this much time is spent (at least
#: ``CHECK_MIN_REPS`` calls, at most ``CHECK_MAX_REPS``).
CHECK_BUDGET_S = 1.5
CHECK_MIN_REPS = 3
CHECK_MAX_REPS = 200


def import_anthobs(root: Path):
    """Import ``anthobs`` from ``root/src``; refuse any other installation."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import anthobs

    if not Path(anthobs.__file__).resolve().is_relative_to(src):
        raise ImportError(f"anthobs imported from {anthobs.__file__}, not {src}")
    return anthobs


def n_steps(s, p) -> int:
    """Integrator steps of one run of scenario ``s`` (as ``stepping`` counts them)."""
    return int((s.t1 - s.t0) / p.dt + 1e-9)


def sensitivity_runs(s) -> int:
    """Truth-only runs ``runner`` adds: a +-1e-4 pair for spatial ``k1 > 0``."""
    return 2 if s.model == "pde" and s.k1 > 0.0 else 0


def cell_steps(scenarios, p) -> int:
    """Truth plus observer cell-steps of a sweep, sensitivity runs included;
    the within-host model counts as one cell."""
    return sum(n_steps(s, p) * (s.n ** s.dim if s.model == "pde" else 1)
               * (2 + sensitivity_runs(s)) for s in scenarios)


def sweep_and_check(runner, p, scenarios, out_dir: Path, check_reps: bool) -> dict:
    start = time.perf_counter()
    records = runner.sweep("custom", p, out_dir=out_dir, workers=1, scenarios=scenarios)
    sweep_s = time.perf_counter() - start
    start = time.perf_counter()
    problems = runner.check_artifacts(out_dir)
    check_s = [time.perf_counter() - start]
    while check_reps and len(check_s) < CHECK_MAX_REPS and (
            len(check_s) < CHECK_MIN_REPS or sum(check_s) < CHECK_BUDGET_S):
        start = time.perf_counter()
        runner.check_artifacts(out_dir)
        check_s.append(time.perf_counter() - start)
    return {
        "sweep_s": sweep_s,
        "check_s": check_s,
        "problems": problems,
        "records": [{
            "label": r.scenario.label, "status": r.status, "error": r.error,
            "checks": r.checks, "final_abs_err": r.final_abs_err,
            "final_rel_err": r.final_rel_err} for r in records],
    }


def artifact_totals(out_dir: Path) -> tuple[int, int]:
    """Files and bytes below ``out_dir``, less the informational wall-clock
    line of each ``record.txt`` (outside the byte-determinism contract)."""
    files = size = 0
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        files += 1
        size += path.stat().st_size
        if path.name == "record.txt":
            size -= sum(len(line) + 1 for line in path.read_text().splitlines()
                        if line.startswith("wall_clock_s"))
    return files, size


def run_pass(root: Path, workload: str, seed: int, mode: str, out_dir: Path,
             t_spawn: float | None = None, build=None) -> dict:
    """Measure one repetition in this process and return its result.

    ``build(workload, seed)`` defaults to :func:`workloads.build`; tests pass
    their own to inject scenarios.
    """
    import_anthobs(root)
    import workloads
    from anthobs import runner

    p, scenarios = (build or workloads.build)(workload, seed)
    setup_s = None if t_spawn is None else time.perf_counter() - t_spawn
    result = {
        "mode": mode, "workload": workload, "seed": seed, "setup_s": setup_s,
        "labels": [s.label for s in scenarios],
        "keys": [workloads.reference_key(s, p) for s in scenarios],
        "cell_steps": cell_steps(scenarios, p),
        "sensitivity_steps": sum(n_steps(s, p) * sensitivity_runs(s) for s in scenarios),
    }
    if mode == "setup":
        return result
    out_dir.mkdir(parents=True, exist_ok=True)
    if mode == "plain":
        result.update(sweep_and_check(runner, p, scenarios, out_dir, check_reps=True))
    elif mode == "count":
        import tracing

        with tracing.CountingPass() as counting:
            result.update(sweep_and_check(runner, p, scenarios, out_dir, check_reps=False))
        result["counts"] = dict(counting.counts)
        result["files_written"], result["bytes_written"] = artifact_totals(out_dir)
    elif mode == "sample":
        import tracing

        package = Path(runner.__file__).parent
        with tracing.PhaseSpans() as spans, tracing.StackSampler(package) as sampler:
            start = time.perf_counter()
            result.update(sweep_and_check(runner, p, scenarios, out_dir, check_reps=False))
            result["traced_s"] = time.perf_counter() - start
        result["phases"] = spans.totals
        result["samples"] = {str(k): v for k, v in sampler.counts.items()}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)
    result = run_pass(args.root, args.workload, args.seed, args.mode, args.out,
                      args.t_spawn)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
