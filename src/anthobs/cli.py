"""Command-line interface.

Subcommands::

    anthobs validate [config]            check a configuration's hypotheses
    anthobs run <config> [-o DIR]        run the scenarios listed in a config
    anthobs sweep paper-ode|paper-pde    run the reference study matrix
    anthobs check <run-dir>              re-verify stored artifacts
    anthobs plot <run-dir>               re-render SVG plots from the CSV

Exit status 0 on success, 1 when a check or run fails, 2 on usage or input
errors.  The output root defaults to ``$ANTHOBS_OUT`` or ``./runs``.
"""

from __future__ import annotations

import argparse
import sys

from . import runner
from .config import ConfigError, LoadedConfig, load_config, load_config_text
from .params import validate_spatial

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="anthobs", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a configuration")
    p_val.add_argument("config", nargs="?", help="config file (defaults when omitted)")

    p_run = sub.add_parser("run", help="run the scenarios of a configuration")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--out", help="output directory root")
    p_run.add_argument("--workers", type=int, default=1,
                       help="processes that run the configuration's groups: the scenarios"
                       " that share model, scheme, sensor and span, and for spatial ones"
                       " the grid, form one group (a paper sweep is one group)")

    p_sweep = sub.add_parser("sweep", help="run a reference study matrix")
    p_sweep.add_argument("kind", choices=["paper-ode", "paper-pde"])
    p_sweep.add_argument("--config", help="optional config overriding parameters")
    p_sweep.add_argument("-o", "--out", help="output directory root")

    p_check = sub.add_parser("check", help="re-verify stored run artifacts")
    p_check.add_argument("run_dir")

    p_plot = sub.add_parser("plot", help="re-render plots from stored artifacts")
    p_plot.add_argument("run_dir")
    return ap


def _load(path: str | None) -> LoadedConfig:
    # no file: the reference defaults of an empty configuration
    return load_config_text("") if path is None else load_config(path)


def _cmd_validate(args) -> int:
    cfg = _load(None) if args.config is None else load_config(args.config, strict=False)
    violations = validate_spatial(cfg.spatial)
    for v in violations:
        kind = "error" if v.hard else "warning"
        print(f"{kind}: {v.message}")
    if not violations:
        print("configuration OK"
              + (f" ({len(cfg.scenarios)} scenarios)" if cfg.scenarios else ""))
    return 1 if violations else 0


def _summarise(records) -> int:
    failed = [r for r in records if r.status != "ok"]
    bad_checks = [
        (r, name, verdict)
        for r in records for name, verdict in r.checks.items()
        if verdict == "fail"
    ]
    for r in records:
        checks = ", ".join(f"{k}={v}" for k, v in r.checks.items()) or "-"
        print(f"{r.scenario.label}: {r.status}"
              + (f" ({r.error})" if r.error else "")
              + f"  final_rel_err={r.final_rel_err}"
              + f"  checks: {checks}")
    if failed:
        print(f"{len(failed)} run(s) failed", file=sys.stderr)
    if bad_checks:
        for r, name, _ in bad_checks:
            print(f"check failed: {r.scenario.label} {name}", file=sys.stderr)
    return 1 if failed or bad_checks else 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = runner.output_root(args.out)
    records = []
    if cfg.scenarios:
        records += runner.sweep("custom", cfg.params, cfg.spatial, out,
                                workers=args.workers, scenarios=cfg.scenarios)
    for kind in cfg.sweeps:
        records += runner.sweep(kind, cfg.params, cfg.spatial, out / kind,
                                workers=args.workers)
    if not records:
        print("configuration lists no scenarios; nothing to do")
        return 0
    return _summarise(records)


def _cmd_sweep(args) -> int:
    cfg = _load(args.config)
    out = runner.output_root(args.out) / args.kind
    records = runner.sweep(args.kind, cfg.params, cfg.spatial, out)
    status = _summarise(records)
    print(f"wrote {len(records)} runs under {out}")
    return status


def _cmd_check(args) -> int:
    problems = runner.check_artifacts(args.run_dir)
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        print(f"{len(problems)} problem(s) found", file=sys.stderr)
        return 1
    print("artifacts OK")
    return 0


def _cmd_plot(args) -> int:
    # a failed run's directory holds no series to plot
    dirs = [d for d in runner.scenario_dirs(args.run_dir) if (d / "series.csv").exists()]
    if not dirs:
        print(f"no artifacts under {args.run_dir}", file=sys.stderr)
        return 2
    for d in dirs:
        for kind in runner.PLOTS:
            print(f"wrote {runner.emit_plot(d, kind)}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
    "plot": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
