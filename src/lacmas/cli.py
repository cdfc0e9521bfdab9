"""Command-line entry point.

Subcommands:
  run        benchmark runs for selected suite functions and seeds
  suite      ablation table across variants
  wsn        distributed localization task
  calibrate  probe run estimating the scheduling horizon T
  verify     admissibility check over recorded mixing matrices

Exit codes: 0 success, 1 configuration error, 2 runtime fault,
3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import engine, scheduler
from .analysis import check_admissibility
from .config import (
    ExperimentConfig,
    build_benchmark,
    build_graph,
    build_run_config,
    build_wsn_objective,
    load_config,
    seeded_runs,
)
from .errors import ConfigError, ContractError
from .objectives import FAMILIES
from .wsn import system_error

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAULT = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """A bad command line ends like a bad config file: one `configuration
    error:` line and exit 1."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    # A ContractError reaching here is a bad input value that a lower layer
    # rejected (a swarm parameter, a malformed guidance request), not a crash.
    except (ConfigError, ContractError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


# Flags several subcommands share; each subcommand takes only those it reads.
_SHARED_FLAGS = {
    "--config": dict(help="JSON configuration file"),
    "--out": dict(help="output directory override"),
    "--seed": dict(type=int, help="master seed override"),
    "--variant": dict(choices=engine.VARIANTS),
    "--provider": dict(choices=["heuristic", "llm"]),
    "--max-iter": dict(type=int),
    "--agents": dict(type=int),
    "--dim": dict(type=int),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lacmas")
    sub = parser.add_subparsers(required=True)

    def add(name, func, help, *shared):
        # Spelled-out flags only: abbreviated, `suite --variant` is `--variants`.
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in ("--config", *shared):
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    run_flags = ("--out", "--seed", "--variant", "--provider", "--max-iter")
    p_run = add("run", cmd_run, "benchmark experiment runs", *run_flags, "--agents", "--dim")
    p_run.add_argument("--suite", default=None, help="comma-separated families (default: all)")
    p_run.add_argument("--seeds", type=int, default=None, help="number of seeded repetitions")
    p_run.add_argument("--hetero-sigma", type=float, default=None)
    p_run.add_argument("--record-matrices", action="store_true")

    p_suite = add(
        "suite", cmd_suite, "ablation table across variants",
        "--out", "--seed", "--provider", "--max-iter", "--agents", "--dim",
    )
    p_suite.add_argument("--variants", default="baseline,coop,act,full")
    p_suite.add_argument("--suite", default=None)
    p_suite.add_argument("--seeds", type=int, default=None)

    p_wsn = add("wsn", cmd_wsn, "distributed localization task", *run_flags)
    p_wsn.add_argument("-n", "--sensors", type=int, default=None)
    p_wsn.add_argument("--targets", type=int, default=None)
    p_wsn.add_argument("--noise", type=float, default=None)

    p_cal = add("calibrate", cmd_calibrate, "estimate the horizon T", "--seed", "--agents", "--dim")
    p_cal.add_argument("--probe-length", type=int, default=200)
    p_cal.add_argument("--family", default="sphere", choices=FAMILIES)

    p_ver = add("verify", cmd_verify, "replay admissibility checks")
    p_ver.add_argument("matrices", help=".npz file with recorded mixing matrices")

    return parser


# Command-line flag -> (config section, field); None is the top level.
_FLAG_FIELDS = {
    "seed": (None, "master_seed"),
    "variant": (None, "variant"),
    "provider": (None, "provider"),
    "max_iter": (None, "max_iterations"),
    "seeds": (None, "num_runs"),
    "agents": ("objective", "num_agents"),
    "dim": ("objective", "dim"),
    "hetero_sigma": ("objective", "hetero_sigma"),
    "sensors": ("wsn", "num_sensors"),
    "targets": ("wsn", "num_targets"),
    "noise": ("wsn", "noise_sigma"),
}


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """`cfg` with the given flags folded in. A flag counts as given when it is
    not None, so an explicit 0 reaches validation; replace() re-runs the
    config's own checks."""
    top, sections = {}, {}
    for flag, (section, name) in _FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if section is None:
            top[name] = value
        else:
            sections.setdefault(section, {})[name] = value
    for section, values in sections.items():
        top[section] = replace(getattr(cfg, section), **values)
    if getattr(args, "out", None):
        top["output_dir"] = args.out
    if getattr(args, "suite", None):
        top["suite"] = [f.strip() for f in args.suite.split(",") if f.strip()]
    return replace(cfg, **top)


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    record = args.record_matrices
    # Every run is built, and so checked, before anything is written.
    runs = [
        (family, run_cfg)
        for family in cfg.suite
        for run_cfg in seeded_runs(cfg, build_benchmark(cfg, family), record_matrices=record)
    ]
    out = _outdir(cfg)
    summaries = []
    for family, run_cfg in runs:
        report = engine.run(run_cfg)
        stem = f"trace_{family}_{cfg.variant}_seed{run_cfg.master_seed}"
        engine.write_trace_csv(report, out / f"{stem}.csv")
        if record and report.matrices is not None:
            np.savez_compressed(out / f"{stem}_matrices.npz", *[m for m in report.matrices])
        summaries.append((family, report))
        if report.aborted:
            print(engine.summarize(report), file=sys.stderr)
            return EXIT_FAULT
    summary_path = out / f"summary_{cfg.variant}.txt"
    with open(summary_path, "w") as fh:
        for family, report in summaries:
            fh.write(f"[{family}]\n{engine.summarize(report)}\n\n")
    print(f"wrote {len(summaries)} runs to {out}")
    return EXIT_OK


def cmd_suite(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("--variants must name at least one variant")
    # Variants run to the full budget so final fitness is compared at equal
    # evaluation counts; communication cost is counted up to the first
    # disagreement-threshold crossing. Every cell is built, and so checked,
    # before anything is written.
    cells = []
    for family in cfg.suite:
        objective = build_benchmark(cfg, family)
        for variant in variants:
            run_cfgs = seeded_runs(cfg, objective, variant=variant, stop_at_convergence=False)
            cells.append((family, variant, run_cfgs))
    out = _outdir(cfg)
    lines = [
        "family,variant,mean_final_fitness,mean_best_agent_value,mean_comm_cost,"
        "mean_converged_at,converged_runs"
    ]
    for family, variant, run_cfgs in cells:
        finals, bests, costs, convs = [], [], [], []
        for run_cfg in run_cfgs:
            report = engine.run(run_cfg)
            if report.aborted:
                print(engine.summarize(report), file=sys.stderr)
                return EXIT_FAULT
            finals.append(report.final_fitness_mean_state)
            bests.append(report.final_best_agent_value)
            costs.append(report.comm_cost_at_convergence)
            convs.append(report.converged_at)
        done = [c for c in convs if c is not None]
        mean_conv = float(np.mean(done)) if done else float("nan")
        lines.append(
            f"{family},{variant},{float(np.mean(finals))!r},{float(np.mean(bests))!r},"
            f"{float(np.mean(costs))!r},{mean_conv!r},{len(done)}"
        )
    table = out / "ablation.csv"
    table.write_text("\n".join(lines) + "\n")
    print(f"wrote {table}")
    return EXIT_OK


def cmd_wsn(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    objective = build_wsn_objective(cfg)
    graph = build_graph(cfg, objective.num_agents)
    run_cfg = build_run_config(cfg, objective, graph, cfg.master_seed)
    out = _outdir(cfg)
    report = engine.run(run_cfg)
    if report.aborted:
        print(engine.summarize(report), file=sys.stderr)
        return EXIT_FAULT
    stem = f"wsn_n{cfg.wsn.num_sensors}_t{cfg.wsn.num_targets}_seed{cfg.master_seed}"
    engine.write_trace_csv(report, out / f"{stem}.csv")
    err = system_error(objective.scenario, objective.phi, report.final_states)
    print(f"final estimation error: {err!r}")
    print(engine.summarize(report))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    objective = build_benchmark(cfg, args.family)
    graph = build_graph(cfg, objective.num_agents)
    run_cfg = build_run_config(
        cfg, objective, graph, cfg.master_seed,
        variant="baseline", max_iterations=args.probe_length,
    )
    report = engine.run(run_cfg)
    if report.aborted:
        print(engine.summarize(report), file=sys.stderr)
        return EXIT_FAULT
    horizon = scheduler.calibrate_horizon(
        report.disagreement_trace,
        threshold=cfg.convergence_threshold,
        default_T=cfg.pcg.horizon_T,
    )
    print(horizon)
    return EXIT_OK


def _read_matrices(path) -> list[np.ndarray]:
    """The arrays of an .npz file, each a square matrix of real numbers.
    Anything else is a ConfigError, raised before a graph is built."""
    try:
        data = np.load(path)
        if isinstance(data, np.lib.npyio.NpzFile):
            with data:
                matrices = {key: data[key] for key in data.files}
    # A short or foreign file ends in EOFError or ValueError (numpy takes
    # what it cannot parse for pickled data), a broken archive in BadZipFile.
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read matrices file: {exc}") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ConfigError(f"matrices file {path} is not an .npz archive")
    if not matrices:
        raise ConfigError("matrices file is empty")
    for key, m in matrices.items():
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.dtype.kind not in "biuf":
            raise ConfigError(
                f"matrices file entry {key!r} is not a square real matrix "
                f"(shape {m.shape}, dtype {m.dtype})"
            )
    return list(matrices.values())


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    matrices = _read_matrices(args.matrices)
    graph = build_graph(cfg, matrices[0].shape[0])
    failures = 0
    for idx, matrix in enumerate(matrices):
        report = check_admissibility(matrix, graph)
        if not report.passed:
            failures += 1
            print(f"iteration {idx}: violation "
                  f"(row_dev={report.max_row_deviation!r}, min={report.min_entry!r})")
    admissible = failures == 0
    print(f"admissible: {'true' if admissible else 'false'} "
          f"({len(matrices)} matrices, {failures} violations)")
    return EXIT_OK if admissible else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
