"""Command-line interface: run experiments, sweeps, listings, and traces."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from typing import Optional

from .benchmarks import list_problems
from .errors import ConfigurationError
from .harness import (
    ALGORITHMS,
    OVERRIDABLE_KEYS,
    SWEEPABLE_KEYS,
    ExperimentConfig,
    SweepConfig,
    config_from_dict,
    emit_outputs,
    run_experiment,
    run_sweep,
)

# What ``trace`` runs unless flags or the config file name others.
TRACE_DEFAULTS = {"problems": ["B1"], "algorithms": ["mde-itmf"]}


def _parse_params(items) -> dict:
    overrides = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigurationError(f"--param expects key=value, got {item!r}")
        try:
            overrides[key.strip()] = float(value)  # range-checked by ExperimentConfig
        except ValueError:
            raise ConfigurationError(f"--param {key.strip()}: {value!r} is not a number") from None
    return overrides


def _parse_values(text) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"--values expects comma-separated numbers, got {text!r}") from None


def _build_config(args, defaults: dict, fixed: Optional[dict] = None) -> ExperimentConfig:
    """Settings by rising precedence: ``defaults``, the ``--config`` file, flags, ``fixed``."""
    config = ExperimentConfig(**{"problems": [p.pid for p in list_problems()], **defaults})
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as err:  # missing, a directory, unreadable
            raise ConfigurationError(
                f"cannot read config file {args.config}: {err.strerror}") from None
        except ValueError as err:  # a syntax error or undecodable text
            raise ConfigurationError(f"config file {args.config} is not JSON: {err}") from None
        if not isinstance(data, dict):
            raise ConfigurationError(f"config file {args.config} must hold one JSON object")
        config = config_from_dict({**asdict(config), **data})
    flags = {"problems": args.problem, "algorithms": args.algo,
             "runs": getattr(args, "runs", None), "seed": args.seed, "out_dir": args.out}
    changes = {
        "overrides": {**config.overrides, **_parse_params(args.param)},
        "parallel": config.parallel or getattr(args, "parallel", False),
        "trace": config.trace or getattr(args, "trace", False),
        **{k: v for k, v in flags.items() if v is not None},
        **(fixed or {}),
    }
    return replace(config, **changes)


def _fmt_stats(stats, digits=2):
    return "-" if stats is None else f"{stats.mean:.{digits}f}"


def _print_experiment(report):
    print(f"{'problem':<8} {'algorithm':<9} {'runs':>5} {'mean NGP':>9} "
          f"{'mean NFE':>12} {'mean ET(s)':>11}")
    for cell in report.cells:
        agg = cell.aggregates or {}
        print(f"{cell.problem:<8} {cell.algorithm:<9} {len(cell.records):>5} "
              f"{_fmt_stats(agg.get('ngp')):>9} {_fmt_stats(agg.get('nfe'), 1):>12} "
              f"{_fmt_stats(agg.get('elapsed_seconds'), 3):>11}")
    for failure in report.failures:
        print(f"FAILED {failure['problem']} {failure['algorithm']} "
              f"seed={failure['seed']}: {failure['error']}")


def _finish(report, out_dir, show) -> int:
    """Write the output files, then ``show()`` the summary, so a closed stdout loses no file."""
    paths = emit_outputs(report, out_dir) if out_dir else []
    show()
    for path in paths:
        print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_run(args) -> int:
    config = _build_config(args, {"runs": 100})
    report = run_experiment(config)
    return _finish(report, config.out_dir, lambda: _print_experiment(report))


def _cmd_sweep(args) -> int:
    sweep = SweepConfig(base=_build_config(args, {"runs": 30}), parameter=args.sweep_param,
                        values=_parse_values(args.values))
    report = run_sweep(sweep)

    def show():
        for value, exp in report.rows:
            print(f"--- {sweep.parameter} = {value}")
            _print_experiment(exp)

    return _finish(report, sweep.base.out_dir, show)


def _cmd_list(args) -> int:
    print(f"{'id':<4} {'name':<20} {'minima':>6} {'domain':<26} "
          f"{'Np':>3} {'F':>4} {'CR':>4} {'Nsp':>3} {'beta':>6} {'rho':>5} {'tol':>7}")
    for p in list_problems():
        lo, hi = p.bounds.lower, p.bounds.upper
        domain = f"[{lo[0]:g},{hi[0]:g}]x[{lo[1]:g},{hi[1]:g}]"
        d, pen = p.default_params.de, p.default_params.penalty
        print(f"{p.pid:<4} {p.name:<20} {p.minimizer_count:>6} {domain:<26} "
              f"{d.pop_size:>3} {d.F:>4.2g} {d.CR:>4.2g} {p.default_params.subpops:>3} "
              f"{pen.magnitude:>6g} {pen.radius:>5g} {p.default_params.switch_tol:>7g}")
    return 0


def _cmd_trace(args) -> int:
    config = _build_config(args, TRACE_DEFAULTS, {"runs": 1, "trace": True, "parallel": False})
    report = run_experiment(config)

    def show():
        for cell in report.cells:
            for record in cell.records:
                b = record.final_bests
                bests = "; ".join(f"({x:.6g}, {y:.6g}) f={f:.6g}"
                                  for (x, y, *_), f in zip(b.coords.tolist(), b.fitness.tolist()))
                print(f"{cell.problem} {cell.algorithm} seed={record.seed} "
                      f"nfe={record.nfe} generations={record.generations_used} bests: {bests}")

    return _finish(report, config.out_dir, show)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multide",
        description="Multimodal optimization benchmark harness "
                    "(canonical DE, MDE-ITMF, DEwI)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, batch=True, defaults=None):
        shown = {key: " ".join(names) for key, names in (defaults or {}).items()}
        p.add_argument("--problem", action="append", help="problem id or name "
                       f"(repeatable; default: {shown.get('problems', 'all')})")
        p.add_argument("--algo", action="append", choices=list(ALGORITHMS), help="algorithm "
                       f"(repeatable; default: {shown.get('algorithms', 'all')})")
        if batch:
            p.add_argument("--runs", type=int, default=None, help="runs per cell")
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help=f"parameter override, keys: {' '.join(OVERRIDABLE_KEYS)}")
        p.add_argument("--out", default=None, metavar="DIR", help="output directory")
        p.add_argument("--config", default=None, metavar="FILE",
                       help="JSON config file (a report.json works too); flags win")
        if batch:
            p.add_argument("--parallel", action="store_true",
                           help="run seeded executions across worker processes")

    p_run = sub.add_parser("run", help="run a seeded experiment")
    common(p_run)
    p_run.add_argument("--trace", action="store_true", help="collect per-generation traces")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="one-parameter sensitivity sweep")
    common(p_sweep)
    p_sweep.add_argument("--sweep-param", required=True, metavar="KEY",
                         help=f"parameter to sweep: {' '.join(SWEEPABLE_KEYS)}")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 8,10,12,15")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_list = sub.add_parser("list", help="list problems and default parameters")
    p_list.set_defaults(func=_cmd_list)

    p_trace = sub.add_parser("trace", help="single seeded run with per-generation trace")
    common(p_trace, batch=False, defaults=TRACE_DEFAULTS)
    p_trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away; the files are written. Send what is still
        # buffered to devnull, so the exit flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
