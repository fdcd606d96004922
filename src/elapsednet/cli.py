"""Command-line surface: run experiments, solve steady states, run studies.

Subcommands: run, limit, stationary, doeblin, epsilon-study, large-input,
presets, version.  Experiments come from ``--preset`` or a ``--config``
file (flags override both).  The BLAS/OpenMP thread pools are capped by
the standard OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    Experiment,
    ExperimentConfig,
    build_experiment,
    parse_config,
    with_overrides,
)
from .diagnostics import (
    FitError,
    doeblin_check,
    fit_decay,
    homogenization_metrics,
    regime_certificates,
)
from .fixedpoint import PicardError
from .grids import GridError, whole_steps
from .limit import epsilon_study, limit_run
from .models import ModelError
from .output import OutputSink, fmt, format_values, kernel_csv, write_record
from .presets import get_preset, list_presets
from .renewal import CFLError, NegativeDensityError, large_input_run, nonlinear_run
from .stationary import StationaryProblem, solve_stationary

SOLVER_ERRORS = (CFLError, NegativeDensityError, PicardError, GridError, ModelError,
                 ConfigError)

# command-line flag (argparse dest) -> config key
_FLAG_KEYS = {"t_end": "t_end", "epsilon": "epsilon", "save_every": "save_every",
              "picard": "picard", "tol": "picard_tol", "out": "out"}


def _load_config(args) -> ExperimentConfig:
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset:
        try:
            cfg = get_preset(args.preset).config
        except KeyError as exc:
            raise ConfigError(exc.args[0], key="preset") from None
    elif args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config!r}: {exc.strerror}",
                              key="config") from None
        cfg = parse_config(text)
    else:
        cfg = parse_config("")
    return with_overrides(cfg, **{key: getattr(args, flag) for flag, key in _FLAG_KEYS.items()})


def _sink_for(cfg, fallback: str) -> OutputSink:
    directory = cfg.out or cfg.preset or fallback
    try:
        sink = OutputSink(directory)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory!r}: {exc.strerror}",
                          key="out") from None
    sink.metadata.update({
        "nx": str(cfg.nx), "ns": str(cfg.ns), "s_max": fmt(cfg.s_max),
        "dt": fmt(cfg.resolved_dt()), "epsilon": fmt(cfg.epsilon),
        "t_end": fmt(cfg.t_end), "preset": cfg.preset or "custom",
    })
    return sink


def _stationary_problem(exp: Experiment) -> StationaryProblem:
    return StationaryProblem(exp.space, exp.age, exp.g, exp.model, exp.rule,
                             exp.input_model.evaluate(exp.space))


def _certificate_lines(exp: Experiment) -> list[str]:
    problem = _stationary_problem(exp)
    wellposed, limit = regime_certificates(exp.model, exp.rule, exp.w0, exp.g,
                                           problem.input_values,
                                           n0_max=float(exp.n0.values.max()))
    lines = ["[certificates]"]
    for c in (wellposed, problem.certificate(), limit):
        verdict = "holds" if c.holds else "outside proved regime"
        lines.append(f"{c.name}: lhs = {fmt(c.lhs)} -> {verdict}  ({c.description})")
    return lines


def _record_lines(sink: OutputSink, record) -> list[str]:
    write_record(sink, record)
    metrics = homogenization_metrics(record)
    return [
        f"final ||w - <w>||_inf = {fmt(metrics.w_deviation[-1])}",
        f"final N spread = {fmt(metrics.N_deviation[-1])}",
        f"final S spread = {fmt(metrics.S_deviation[-1])}",
    ]


_WROTE_FILES = "wrote {files} files to {directory}"


def _run(exp: Experiment, args, sink: OutputSink):
    cfg = exp.config
    record = nonlinear_run(exp.n0, exp.w0, exp.model, exp.rule, exp.input_model, exp.solver,
                           cfg.t_end, save_every=cfg.save_every,
                           snapshot_times=(0.0, cfg.t_end / 2.0, cfg.t_end))
    summary = _record_lines(sink, record)
    summary.append(f"max |mass - g| = {fmt(float(np.abs(record.mass_series - exp.g).max()))}")
    try:
        decay = fit_decay(record.times, np.abs(record.N_series - record.final_N()).max(axis=1))
        summary.append(f"activity decay rate = {fmt(decay.lambda_hat)} "
                       f"(r^2 = {fmt(decay.r_squared)})")
    except FitError:
        summary.append("activity decay rate = not fitted")
    return summary + _certificate_lines(exp), _WROTE_FILES


def _limit(exp: Experiment, args, sink: OutputSink):
    cfg = exp.config
    record = limit_run(exp.w0, exp.g, exp.model, exp.rule, exp.input_model,
                       dt=cfg.resolved_dt(), t_end=cfg.t_end, save_every=cfg.save_every,
                       snapshot_times=(0.0, cfg.t_end), inner_tol=cfg.picard_tol,
                       inner_max_iters=cfg.picard_max_iters)
    return _record_lines(sink, record) + _certificate_lines(exp), _WROTE_FILES


def _stationary(exp: Experiment, args, sink: OutputSink):
    tol = args.tol if args.tol is not None else 1e-12
    states = solve_stationary(_stationary_problem(exp), tol=tol)
    if not states:
        raise PicardError("no converged stationary state from any start", float("nan"))
    state = states[0]
    sink.write_csv("stationary.csv", ["x", "S_star", "N_star"],
                   np.column_stack((exp.space.nodes, state.S_star, state.N_star)))
    sink.write_text("w_star.csv", kernel_csv(format_values(exp.space.nodes),
                                             format_values(state.w_star.values)))
    return ([f"residual = {fmt(state.residual)}", f"iterations = {state.iterations}",
             f"distinct fixed points found = {len(states)}", *_certificate_lines(exp)],
            f"stationary residual {fmt(state.residual)}; wrote to {{directory}}")


def _doeblin(exp: Experiment, args, sink: OutputSink):
    report = doeblin_check(exp.n0, exp.input_model.evaluate(exp.space), exp.model)
    return [
        f"alpha = {fmt(report.alpha)}",
        f"lambda_theory = {fmt(report.lambda_theory)}",
        f"t0 = {fmt(report.t0)}",
        f"p_star = {fmt(report.p_star)}, s_star = {fmt(report.s_star)}",
        f"minorization margin = {fmt(report.minorization_margin)} "
        f"(tolerated down to {fmt(-2 * exp.age.ds)})",
        f"degenerate = {report.degenerate}",
    ], None


def _epsilon_study(exp: Experiment, args, sink: OutputSink):
    cfg = exp.config
    study = epsilon_study(cfg.epsilon_list, exp.n0, exp.w0, exp.model, exp.rule,
                          exp.input_model, T=cfg.t_end, picard=exp.solver.picard)
    sink.write_csv("epsilon_distances.csv", ["epsilon", "dist_n_L1_tsx", "dist_N_L1_tx"],
                   np.column_stack((study.epsilons, study.dist_n, study.dist_N)))
    order = fmt(study.fitted_order) if np.isfinite(study.fitted_order) else "not fitted"
    return [f"T = {fmt(study.T)}", f"fitted order in epsilon = {order}"], None


def _large_input_config(cfg: ExperimentConfig) -> ExperimentConfig:
    if whole_steps(cfg.t_end, cfg.resolved_dt()) % 2:
        raise ConfigError(f"t_end = {cfg.t_end} is an odd number of steps of dt = "
                          f"{cfg.resolved_dt()}; large-input also samples at t_end / 2",
                          key="t_end")
    if cfg.sigma == "identity":
        # the frozen large-stimulation rate must stay on the age grid
        cfg = with_overrides(cfg, sigma="bounded", sigma_max=min(2.0, cfg.s_max / 4.0))
    return cfg


def _large_input(exp: Experiment, args, sink: OutputSink):
    cfg = exp.config
    study = large_input_run(cfg.large_input_k, exp.n0, exp.w0, exp.model, exp.rule,
                            exp.input_model, exp.solver, t_end=cfg.t_end,
                            sample_times=(cfg.t_end / 2.0, cfg.t_end))
    header = ["k"] + [f"dist_t{fmt(t)}" for t in study.sample_times]
    sink.write_csv("large_input_distances.csv", header,
                   np.column_stack((study.ks, study.distances)))
    return [f"k = {fmt(k)}: final distance = {fmt(study.distances[i, -1])}"
            for i, k in enumerate(study.ks)], None


class Command(NamedTuple):
    help: str
    out: str  # output directory when neither --out nor a preset names one
    # (experiment, args, sink) -> (summary lines, stdout template with {files} and
    # {directory}, or None to echo the summary); may raise SOLVER_ERRORS
    run: Callable
    adjust: Callable | None = None  # config -> config before the build; may raise ConfigError


COMMANDS = {
    "run": Command("integrate the full density/kernel system", "run_output", _run),
    "limit": Command("integrate the slow-learning limit system", "limit_output", _limit),
    "stationary": Command("solve the stationary fixed point", "stationary_output", _stationary),
    "doeblin": Command("check the minorization bound of the frozen dynamics", "doeblin_output",
                       _doeblin),
    "epsilon-study": Command("distances to the limit system over epsilon", "epsilon_output",
                             _epsilon_study),
    "large-input": Command("distances to the frozen-rate limit over k", "large_input_output",
                           _large_input, adjust=_large_input_config),
}


def run_command(args) -> int:
    """Load, adjust and build the experiment, run the command, then write the summary
    and MANIFEST; one of SOLVER_ERRORS from the command leaves an incomplete MANIFEST
    and exit code 1."""
    command = COMMANDS[args.command]
    cfg = _load_config(args)
    if command.adjust is not None:
        cfg = command.adjust(cfg)
    exp = build_experiment(cfg)
    sink = _sink_for(cfg, command.out)
    try:
        lines, stdout = command.run(exp, args, sink)
    except SOLVER_ERRORS as exc:
        sink.write_manifest(status="incomplete", error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = [f"[{args.command}]", *lines]
    sink.write_text("summary.txt", "\n".join(summary) + "\n")
    sink.write_manifest()
    print("\n".join(summary) if stdout is None
          else stdout.format(files=len(sink.files) + 1, directory=sink.directory))
    return 0


def cmd_presets(args) -> int:
    for preset in list_presets():
        print(f"{preset.name:10s} {preset.description}")
    return 0


def cmd_version(args) -> int:
    print(f"elapsednet {__version__}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="named experiment preset")
    parser.add_argument("--config", help="path to a key = value configuration file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--t-end", type=float, dest="t_end")
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--save-every", type=float, dest="save_every")
    parser.add_argument("--picard", choices=("lagged", "iterate"))
    parser.add_argument("--tol", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elapsednet",
        description="Solvers for a spatially extended elapsed-time neural network "
                    "with kernel learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        _add_common(p)
        p.set_defaults(fn=run_command)
    sub.add_parser("presets", help="list the named presets").set_defaults(fn=cmd_presets)
    sub.add_parser("version", help="print the package version").set_defaults(fn=cmd_version)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
