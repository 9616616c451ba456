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
invocations keep working, but has no effect.  A config's ``"draw":
"wishart"`` draws each replication's covariance pair from its Wishart
law instead, on the calling thread alone, for ``simulate`` and ``probe``
alike; their reports then carry a ``draw=wishart`` header line, and a
sample size or ``--n-grid`` size of at most p + q exits 3.  On Linux,
where the process may use two CPUs or more, ``select`` and
``criterion`` read a dataset file of 1 MiB or more in two parts at once,
the second in one forked child; on one CPU no child starts.
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


def _add_select_args(sub) -> None:
    _add_dataset_args(sub)
    for f in dataclasses.fields(PenaltySchedule):
        flag = "--" + f.name.replace("_", "-")
        sub.add_argument(flag, type=type(f.default), default=f.default)
    _add_output_args(sub)


def _add_simulate_args(sub) -> None:
    sub.add_argument("--config", required=True, help="study configuration JSON path")
    sub.add_argument("--seed", type=int, default=None, help="override the config base seed")
    sub.add_argument(
        "--jobs", type=int, default=None, help="accepted for older invocations; has no effect"
    )
    _add_output_args(sub)


def _add_criterion_args(sub) -> None:
    _add_dataset_args(sub)
    sub.add_argument("--subset", required=True, help="comma-separated variable labels")


def _add_probe_args(sub) -> None:
    sub.add_argument("--config", required=True, help="study configuration JSON path")
    sub.add_argument("--subset", required=True, help="comma-separated variable labels")
    sub.add_argument(
        "--n-grid",
        default=",".join(str(n) for n in DEFAULT_PROBE_GRID),
        help="comma-separated sample sizes (default 250,1000,4000)",
    )
    sub.add_argument("--reps", type=int, default=DEFAULT_PROBE_REPS)
    sub.add_argument("--seed", type=int, default=None, help="override the config base seed")
    _add_output_args(sub)


def _draw_header(cfg) -> dict:
    """The report header of a config's draw: ``draw=wishart``, and nothing
    for rows, so row reports keep their bytes."""
    return {} if cfg.draw == "rows" else {"draw": cfg.draw}


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
        **_draw_header(cfg),
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
    seed = args.seed if args.seed is not None else cfg.base_seed
    table = convergence_probe(cfg.model, subset, n_grid, args.reps, seed, cfg.draw)
    emit_report(table, args.format, args.out, **_draw_header(cfg))
    return EXIT_OK


# The sub-commands in the order ``covsel --help`` lists them: each one's
# help, the function that adds its arguments and the one that runs it.
COMMANDS = {
    "select": ("select variables from a dataset CSV", _add_select_args, _cmd_select),
    "simulate": (
        "run a Monte Carlo study from a config file", _add_simulate_args, _cmd_simulate
    ),
    "criterion": (
        "print the subset criterion of a dataset", _add_criterion_args, _cmd_criterion
    ),
    "probe": ("criterion scaling across sample sizes", _add_probe_args, _cmd_probe),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``covsel`` parser: every sub-command with its help, and the
    arguments of ``command`` alone, or of every sub-command when it is None.
    A sub-command's usage, help and errors do not depend on the others'
    arguments, so a parser built for the command it parses behaves as the
    whole tree does."""
    parser = argparse.ArgumentParser(
        prog="covsel",
        description="Covariance-criterion variable selection for multivariate regression.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, run) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        if command in (None, name):
            add_args(sub)
        sub.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes only -h, so a command named first is the one
    # parsed; any other argv gets the whole tree
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
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
