"""Regenerate ``reference.json``: final errors of every scenario a seed can draw.

    PYTHONPATH=src python3 benchmarks/make_reference.py [--out FILE]

Runs each distinct scenario of the three workloads once through
``runner.run_scenario`` (no artifacts) and stores ``final_abs_err`` and
``final_rel_err`` at full precision; it takes about ten minutes on a
2-core Xeon.  Run it only on a commit whose outputs are trusted: the gate
compares every later commit against this file.  Fails if any scenario does
not finish with status ``ok``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def all_inputs():
    """Every ``(prng seed, scenario fields)`` any workload seed can produce."""
    out = []
    for th, v0, rho in workloads.ode_triples():
        for k1, k2 in workloads.GAIN_PAIRS:
            for extra in ({}, {"scheme": "rk4", "measurement": "finite_difference"}):
                out.append((None, ("ode", th, v0, rho, k1, k2), extra))
    for prng in workloads.PDE_PRNG_SEEDS:
        for th, v0 in workloads.FIGURE_PAIRS:
            for k1, k2 in workloads.GAIN_PAIRS:
                out.append((prng, ("pde", th, v0, th, k1, k2), workloads.PDE_GRID))
    return out


def final_errors(item):
    from anthobs.params import ParameterSet
    from anthobs.runner import make_scenario, run_scenario

    prng, fields, extra = item
    p = ParameterSet() if prng is None else ParameterSet(seed=prng)
    s = make_scenario(p, *fields, **extra)
    rec = run_scenario(s, p)
    if rec.status != "ok":
        raise RuntimeError(f"{s.label}: {rec.status} {rec.error}")
    return workloads.reference_key(s, p), [rec.final_abs_err, rec.final_rel_err]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path,
                    default=Path(__file__).resolve().with_name("reference.json"))
    args = ap.parse_args(argv)
    results = dict(final_errors(item) for item in all_inputs())
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(results.items())]
    args.out.write_text(
        '{"description": "final_abs_err, final_rel_err per scenario key",\n'
        ' "final_errors": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(results)} references to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
