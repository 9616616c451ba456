"""Command-line interface.

Commands
    select     rank and select variables from a dataset CSV
    simulate   run the seeded Monte Carlo study described by a config file
    criterion  print the subset criterion of a dataset for one subset
    probe      measure how the criterion of a subset scales with sample size

Exit codes: 0 success, 2 usage error, 3 invalid input (dataset, config or
argument values, including a requested size that does not fit in memory
or overflows a machine-sized integer, and a dataset whose covariances
overflow), 4 numerical failure (a singular or ill-conditioned covariance
block, or one whose entries overflowed; also a study aborted because more
than 5% of its replications failed, since replications fail only on such
blocks), 5 I/O failure; a study raises what its helper thread raised, so
a ``MemoryError`` there also exits 3.
The penalty flags of ``select`` are the fields of ``PenaltySchedule``,
one flag each, checked by the schedule before the dataset is read: a bad
value of any of them, ``--penalty-arg`` included, exits 3.  The shapes
are names, and building the schedule checks each name's role, so
``--f-shape sqrt`` exits 3.  ``criterion`` checks ``--subset`` against
``--p`` before it reads the dataset, too.
A study, and the probe, draw on the calling thread and, where the process
may use two CPUs or more and a block's samples are large enough, on one
helper thread; ``simulate --jobs N`` is still accepted, so older
invocations keep working, but has no effect.  On Linux, where the process
may use two CPUs or more, ``select`` and ``criterion`` read a dataset file
of 1 MiB or more in two parts at once, the second in one forked child; on
one CPU no child starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .covariance import (
    SingularSubmatrixError,
    VariableSubset,
    criterion,
    empirical_covariances,
)
from .io import (
    ConfigError,
    DatasetFormatError,
    FORMAT_CSV,
    FORMAT_JSON_LINES,
    emit_report,
    load_simulation_config,
    parse_dataset_csv,
)
from .selection import PenaltySchedule, select_variables
from .simulation import StudyAbortedError, convergence_probe, run_study

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

DEFAULT_PROBE_GRID = (250, 1000, 4000)
DEFAULT_PROBE_REPS = 50


def _parse_subset(text: str, p: int) -> VariableSubset:
    return VariableSubset.of(_parse_int_list(text, "--subset"), p)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _add_dataset_args(sub) -> None:
    sub.add_argument("--input", required=True, help="dataset CSV path")
    sub.add_argument("--p", type=int, required=True, help="number of predictor columns")
    sub.add_argument("--q", type=int, required=True, help="number of response columns")
    sub.add_argument("--has-header", action="store_true", help="skip the first line")


def _add_output_args(sub) -> None:
    sub.add_argument("--out", required=True, help="report output path")
    sub.add_argument(
        "--format",
        choices=[FORMAT_CSV, FORMAT_JSON_LINES],
        default=FORMAT_CSV,
        help="report format (default csv)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covsel",
        description="Covariance-criterion variable selection for multivariate regression.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_select = commands.add_parser("select", help="select variables from a dataset CSV")
    _add_dataset_args(p_select)
    for f in dataclasses.fields(PenaltySchedule):
        flag = "--" + f.name.replace("_", "-")
        p_select.add_argument(flag, type=type(f.default), default=f.default)
    _add_output_args(p_select)
    p_select.set_defaults(func=_cmd_select)

    p_sim = commands.add_parser("simulate", help="run a Monte Carlo study from a config file")
    p_sim.add_argument("--config", required=True, help="study configuration JSON path")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config base seed")
    p_sim.add_argument(
        "--jobs", type=int, default=None, help="accepted for older invocations; has no effect"
    )
    _add_output_args(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_crit = commands.add_parser("criterion", help="print the subset criterion of a dataset")
    _add_dataset_args(p_crit)
    p_crit.add_argument("--subset", required=True, help="comma-separated variable labels")
    p_crit.set_defaults(func=_cmd_criterion)

    p_probe = commands.add_parser("probe", help="criterion scaling across sample sizes")
    p_probe.add_argument("--config", required=True, help="study configuration JSON path")
    p_probe.add_argument("--subset", required=True, help="comma-separated variable labels")
    p_probe.add_argument(
        "--n-grid",
        default=",".join(str(n) for n in DEFAULT_PROBE_GRID),
        help="comma-separated sample sizes (default 250,1000,4000)",
    )
    p_probe.add_argument("--reps", type=int, default=DEFAULT_PROBE_REPS)
    p_probe.add_argument("--seed", type=int, default=None, help="override the config base seed")
    _add_output_args(p_probe)
    p_probe.set_defaults(func=_cmd_probe)

    return parser


def _cmd_select(args) -> int:
    pen = PenaltySchedule(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(PenaltySchedule)}
    )
    data = parse_dataset_csv(args.input, args.p, args.q, has_header=args.has_header)
    result = select_variables(data, pen)
    emit_report(result, args.format, args.out, **pen.describe())
    print("selected:", ",".join(str(i) for i in result.selected))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = load_simulation_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=args.seed)
    summary = run_study(cfg)
    emit_report(
        summary,
        args.format,
        args.out,
        base_seed=cfg.base_seed,
        replications=cfg.replications,
        **cfg.pen.describe(),
    )
    for row in summary.rows:
        print(
            f"n={row.n}: mean_pred_error={row.mean_pred_error:.6g} "
            f"correct_rate={row.correct_rate:.3f} failures={row.failures}"
        )
    return EXIT_OK


def _cmd_criterion(args) -> int:
    subset = _parse_subset(args.subset, args.p)
    data = parse_dataset_csv(args.input, args.p, args.q, has_header=args.has_header)
    value = criterion(empirical_covariances(data), subset)
    print(repr(value))
    return EXIT_OK


def _cmd_probe(args) -> int:
    cfg = load_simulation_config(args.config)
    subset = _parse_subset(args.subset, cfg.model.p)
    n_grid = _parse_int_list(args.n_grid, "--n-grid")
    if not n_grid:
        raise ValueError("--n-grid must name at least one sample size")
    seed = args.seed if args.seed is not None else cfg.base_seed
    table = convergence_probe(cfg.model, subset, n_grid, args.reps, seed)
    emit_report(table, args.format, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SingularSubmatrixError, StudyAbortedError) as e:
        print(f"covsel: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DatasetFormatError, ConfigError, ValueError) as e:
        print(f"covsel: invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("covsel: invalid input: the requested size does not fit in memory", file=sys.stderr)
        return EXIT_INVALID
    except OverflowError:
        # range lengths and array sizes must fit in a C ssize_t
        print("covsel: invalid input: the requested size is too large", file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:
        print(f"covsel: i/o failure: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
