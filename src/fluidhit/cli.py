"""Command-line front end: validate, analyze, simulate, compare, trajectory, gen.

Chains come either from a JSON spec file or from a named generator
(classical, tstage:T, fig3a:N,T, fig3b:T). All outputs are deterministic
under a fixed seed; JSON is emitted with sorted keys so repeated runs are
byte-identical. Exit codes: 0 success, 1 domain failure, 2 I/O or parse
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from .chain_model import chain_spec, decompose, load_chain_spec
from .errors import ChainValidationError, FluidhitError
from .examples import NamedExample, get_example
from .fluid import crossing_time, fluid_trajectory
from .simulator import (
    OccupancyState,
    _replication_rng,
    estimate_hitting_time,
    simulate_trajectory,
)

_NAMED_PREFIXES = ("classical", "tstage", "fig3a", "fig3b")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _parse_n_list(text):
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad N list {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"bad N list {text!r}")
    return values


def _parse_grid(text):
    tmax_str, _, steps_str = text.partition(":")
    try:
        tmax = float(tmax_str)
        steps = int(steps_str) if steps_str else 200
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}, expected tmax:steps") from exc
    if not (math.isfinite(tmax) and tmax > 0) or steps < 1:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    return tmax, steps


# Every flag but --chain, by its argparse keywords; each subcommand takes only
# the flags its cmd_* function reads.
_FLAGS = {
    "--N": dict(type=_positive_int, default=100),
    "--runs": dict(type=_positive_int, default=1000),
    "--seed": dict(type=int, default=0),
    "--format": dict(dest="output_format", choices=("csv", "json")),
    "--out": dict(dest="output_path"),
    "--N-list": dict(dest="n_list", type=_parse_n_list, default=[100]),
    "--samples": dict(type=_positive_int, default=1),
    "--grid": dict(type=_parse_grid, help="trajectory grid as tmax:steps"),
    "--estimate-gamma": dict(action="store_true"),
}

_COMMAND_FLAGS = {
    "validate": (),
    "analyze": ("--N", "--format", "--out", "--estimate-gamma"),
    "simulate": ("--N", "--runs", "--seed", "--out"),
    "compare": ("--N-list", "--runs", "--seed", "--format", "--out", "--estimate-gamma"),
    "trajectory": ("--N", "--samples", "--grid", "--seed", "--out"),
    "gen": ("--out",),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fluidhit",
        description="Hitting-time bounds and simulation for populations of "
        "absorbing Markov chains under random scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in _COMMAND_FLAGS.items():
        # No prefix matching: compare would read --N as its --N-list.
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--chain", required=True, dest="chain_source",
                       help="path to a chain JSON file or a named example "
                            "(classical, tstage:T, fig3a:N,T, fig3b:T)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The one parser main reuses; build_parser() makes a new one."""
    return build_parser()


def _is_named(source):
    head = source.partition(":")[0]
    return head in _NAMED_PREFIXES and not os.path.exists(source)


def _resolve_example(source) -> NamedExample:
    """A named example, or a JSON chain file wrapped as one (no reference values)."""
    if _is_named(source):
        return get_example(source)
    chain, alpha = load_chain_spec(source)
    return NamedExample(name=source, chain=chain, default_alpha=alpha)


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows):
    """header and rows as CSV text; a None cell is left empty."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(["" if v is None else v for v in row] for row in rows)
    return buf.getvalue()


def cmd_validate(cfg) -> int:
    example = _resolve_example(cfg.chain_source)
    print(f"OK: {example.chain.size} states, absorbing state 0")
    return 0


def cmd_analyze(cfg) -> int:
    example = _resolve_example(cfg.chain_source)
    example.check_population(cfg.N)
    report = bounds_mod.assemble_report(example, cfg.N, cfg.estimate_gamma)
    if cfg.output_format == "csv":
        _emit(_csv_text(report.CSV_FIELDS, [report.to_csv_row()]), cfg.output_path)
    else:
        _emit(_json_dumps(report.to_json_dict()), cfg.output_path)
    return 0


def cmd_simulate(cfg) -> int:
    example = _resolve_example(cfg.chain_source)
    example.check_population(cfg.N)
    initial = OccupancyState.from_alpha(example.default_alpha, cfg.N)
    result = estimate_hitting_time(example.chain, initial, cfg.runs, cfg.seed)
    payload = result.to_json_dict()
    exact = example.exact_mean(cfg.N)
    if exact is not None:
        payload["exact_mean"] = exact
        payload["relative_error"] = result.mean / exact - 1.0
    _emit(_json_dumps(payload), cfg.output_path)
    return 0


_BOUND_COLUMNS = bounds_mod.BoundReport.names("upper", "lower", "estimate")

COMPARE_HEADER = (
    "name", "N", "runs", "seed", "sim_mean", "sim_stderr", "sim_ci95",
    *_BOUND_COLUMNS, "within_bands",
)


def cmd_compare(cfg) -> int:
    rows = []
    violations = []
    example = _resolve_example(cfg.chain_source)
    for N in cfg.n_list:
        example = example.for_population(N)
        report = bounds_mod.assemble_report(example, N, cfg.estimate_gamma)
        initial = OccupancyState.from_alpha(example.default_alpha, N)
        result = estimate_hitting_time(example.chain, initial, cfg.runs, cfg.seed)
        # Bounds hold for the mean, so with no standard error (one completed
        # run) there is no band to check a single sample against.
        ok = None
        if result.stderr is not None:
            band = 3.0 * result.stderr
            lower, (_, upper) = report.bracket()
            ok = not (upper < result.mean - band
                      or lower is not None and lower[1] > result.mean + band)
            if not ok:
                violations.append(N)
        rows.append([
            report.instance, N, cfg.runs, cfg.seed,
            result.mean, result.stderr, result.ci95,
            *(getattr(report, name) for name in _BOUND_COLUMNS), ok,
        ])
    if cfg.output_format == "json":
        payload = [dict(zip(COMPARE_HEADER, row)) for row in rows]
        _emit(_json_dumps(payload), cfg.output_path)
    else:
        _emit(_csv_text(COMPARE_HEADER, rows), cfg.output_path)
    if violations:
        print(
            f"bound bands violated at N in {violations}", file=sys.stderr
        )
        return 1
    return 0


def cmd_trajectory(cfg) -> int:
    example = _resolve_example(cfg.chain_source)
    example.check_population(cfg.N)
    chain, alpha = example.chain, example.default_alpha
    sub = decompose(chain)
    if cfg.grid is not None:
        tmax, steps = cfg.grid
    else:
        tmax = crossing_time(alpha, sub, 1.0 / cfg.N).time + 2.0
        steps = 200
    grid = np.linspace(0.0, tmax, steps + 1)
    fluid = fluid_trajectory(alpha, sub, grid)
    level = 1.0 - 1.0 / cfg.N

    fluid_csv = _csv_text(
        ("t", "fluid_m0", "level"),
        ((t, m0, level) for t, m0 in zip(fluid.time_grid, fluid.m0_values)),
    )

    initial = OccupancyState.from_alpha(alpha, cfg.N)
    samples = (
        (run, simulate_trajectory(chain, initial, grid, _replication_rng(cfg.seed, run)))
        for run in range(cfg.samples)
    )
    sim_csv = _csv_text(
        ("run", "t", "fraction_absorbed"),
        ((run, t, frac) for run, s in samples for t, frac in zip(s.rescaled_times, s.m0_fractions)),
    )

    if cfg.output_path:
        base = cfg.output_path
        if base.endswith(".csv"):
            base = base[: -len(".csv")]
        _emit(fluid_csv, base + ".fluid.csv")
        _emit(sim_csv, base + ".samples.csv")
    else:
        sys.stdout.write("# fluid\n" + fluid_csv + "# samples\n" + sim_csv)
    return 0


def cmd_gen(cfg) -> int:
    if not _is_named(cfg.chain_source):
        raise FluidhitError("gen needs a named example (classical, tstage:T, ...)")
    example = get_example(cfg.chain_source)
    spec = chain_spec(example.chain, example.default_alpha)
    _emit(_json_dumps(spec), cfg.output_path)
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "trajectory": cmd_trajectory,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ChainValidationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except FluidhitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
