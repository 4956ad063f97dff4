"""Correctness gate over one benchmark sweep.

``anthobs check`` alone passes a sweep whose failed scenario left an empty
directory, so a scenario counts as failed when any of these holds:

* its run status is not ``ok``, or any check verdict is ``fail``;
* ``check_artifacts`` reports a problem in its directory (a problem that
  names no scenario directory fails every scenario of the sweep);
* it is missing from ``manifest.txt`` as ``ok``, or has no ``series.csv``;
* its ``final_abs_err`` or ``final_rel_err`` differs from the value stored in
  ``reference.json`` by more than ``ABS_TOL + REL_TOL * |reference|``, or no
  reference is stored for it.

The tolerance admits a reordering of floating-point sums (batched or fused
arithmetic changes the last digits) but not a change of the model.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
ABS_TOL = 1e-9
REL_TOL = 1e-6


def load_reference() -> dict[str, list[float]]:
    return json.loads(REFERENCE_PATH.read_text())["final_errors"]


def _drift(value, ref: float) -> bool:
    return (value is None or not math.isfinite(value)
            or abs(value - ref) > ABS_TOL + REL_TOL * abs(ref))


def failures(result: dict, out_dir: Path, reference: dict) -> dict[str, str]:
    """Map each failed scenario label of ``result`` to its first reason."""
    out_dir = Path(out_dir)
    failed: dict[str, str] = {}
    records = {r["label"]: r for r in result.get("records", [])}
    manifest_path = out_dir / "manifest.txt"
    manifest = manifest_path.read_text().split("\n") if manifest_path.exists() else []
    problems = result.get("problems", [])
    prefixes = {label: f"{out_dir / label}:" for label in result["labels"]}
    stray = [p for p in problems
             if not any(p.startswith(pre) for pre in prefixes.values())]

    for label, key in zip(result["labels"], result["keys"]):
        rec = records.get(label)
        mine = [p for p in problems if p.startswith(prefixes[label])]
        if rec is None:
            failed[label] = "no run record"
        elif rec["status"] != "ok":
            failed[label] = f"status {rec['status']}: {rec.get('error')}"
        elif "fail" in rec["checks"].values():
            failed[label] = f"check verdicts {rec['checks']}"
        elif mine or stray:
            failed[label] = f"check_artifacts: {(mine or stray)[0]}"
        elif f"{label} ok" not in manifest:
            failed[label] = "not listed as ok in manifest.txt"
        elif not (out_dir / label / "series.csv").is_file():
            failed[label] = "no series.csv"
        elif key not in reference:
            failed[label] = f"no stored reference for {key}"
        elif any(_drift(rec[name], ref) for name, ref in
                 zip(("final_abs_err", "final_rel_err"), reference[key])):
            failed[label] = (
                f"final errors ({rec['final_abs_err']!r}, {rec['final_rel_err']!r})"
                f" drift from reference {reference[key]}")
    return failed
