"""Reproduce the within-host simulation study end to end.

Runs the full 32-scenario within-host matrix (four figure initial
conditions, admissible initial rot proportions, four gain pairs), writes the
per-scenario artifact directories, re-verifies them from disk, and prints
the end-of-year error table grouped the way the study's figures are.

The within-host runs of the matrix share scheme, sensor and span, so the
sweep steps them together as one batch.  The spatial matrix works the same
way but takes longer; run it with ``anthobs sweep paper-pde -o runs``.  Its
16 scenarios share grid and numerics, so they form one group; ``anthobs
sweep`` takes no ``--workers``, since a process pool runs only separate groups.

Run:  python demos/05_full_study.py [output-dir]
"""

import sys
from collections import defaultdict

from anthobs import ParameterSet
from anthobs.runner import check_artifacts, output_root, sweep

out = output_root(sys.argv[1] if len(sys.argv) > 1 else None) / "paper-ode"
p = ParameterSet()

print(f"Running the 32-scenario within-host matrix into {out} ...")
records = sweep("paper-ode", p, out_dir=out)
failed = [r for r in records if r.status != "ok"]
print(f"  {len(records)} runs, {len(failed)} failures")

print("Re-verifying the stored artifacts (CSV vs recorded verdicts) ...")
problems = check_artifacts(out)
print(f"  {len(problems)} problems found")

groups = defaultdict(dict)
for r in records:
    s = r.scenario
    groups[(s.theta0, s.v0, s.rho0)][(s.k1, s.k2)] = r.final_rel_err

print()
print("End-of-year relative error by gain pair")
print(f"{'theta0':>7} {'v0':>5} {'rho0':>5} | {'k=0,0':>9} {'k=0,1e3':>9}"
      f" {'k=1e3,0':>9} {'k=1e3,1e3':>10}")
for (theta0, v0, rho0), by_gain in sorted(groups.items()):
    row = " ".join(f"{by_gain[k]:9.2e}" for k in
                   ((0.0, 0.0), (0.0, 1e3), (1e3, 0.0)))
    row += f" {by_gain[(1e3, 1e3)]:10.2e}"
    print(f"{theta0:7.2f} {v0:5.2f} {rho0:5.2f} | {row}")

print()
print("The k1=0, k2=1000 column wins (or ties) every row: the rot-rate")
print("innovation is the informative correction.  Envelope and invariant")
print("verdicts for each run live in the per-scenario record.txt files.")
exit_code = 1 if (failed or problems) else 0
sys.exit(exit_code)
