"""Command-line entry point.

Subcommands:
  run        benchmark runs for selected suite functions and seeds
  suite      ablation table across variants
  wsn        WSN localization sweep: every target count from 1 to
             wsn.num_targets (--targets), num_runs (--seeds) seeded runs
             each; traces, summary and err_by_targets.csv
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
    checked_field,
    load_config,
    seeded_runs,
    wsn_runs,
)
from .errors import ConfigError, ContractError, RunAborted
from .objectives import FAMILIES
from .wsn import SUCCESS_ERROR, floored_means, system_error

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
    # A batch that aborts has written no result files.
    except RunAborted as exc:
        print(engine.summarize(exc.report), file=sys.stderr)
        return EXIT_FAULT


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

    p_wsn = add("wsn", cmd_wsn, "localization error against target count", *run_flags)
    p_wsn.add_argument("-n", "--sensors", type=int, default=None)
    p_wsn.add_argument("--targets", type=int, default=None, help="largest target count")
    p_wsn.add_argument("--seeds", type=int, default=None, help="seeded runs per target count")
    p_wsn.add_argument("--noise", type=float, default=None)

    p_cal = add("calibrate", cmd_calibrate, "estimate the horizon T", "--seed", "--agents", "--dim")
    p_cal.add_argument("--probe-length", type=int, default=200)
    p_cal.add_argument("--family", default="sphere", choices=FAMILIES)

    p_ver = add("verify", cmd_verify, "replay admissibility checks")
    p_ver.add_argument("matrices", help=".npz file with recorded mixing matrices")

    return parser


# Command-line flag -> (config section, field); None is the top level.
_FLAG_FIELDS = {
    "out": (None, "output_dir"),
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
    not None, so an explicit 0 reaches validation. Each value passes the
    check a config file's value does, and replace() re-runs the config's own
    checks."""
    top, sections = {}, {}
    for flag, (section, name) in _FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        owner = cfg if section is None else getattr(cfg, section)
        target = top if section is None else sections.setdefault(section, {})
        target[name] = checked_field(owner, name, value, "--" + flag.replace("_", "-"))
    for section, values in sections.items():
        top[section] = replace(getattr(cfg, section), **values)
    if getattr(args, "suite", None) is not None:
        top["suite"] = [f.strip() for f in args.suite.split(",") if f.strip()]
    return replace(cfg, **top)


def _outdir(cfg: ExperimentConfig) -> Path:
    """The output directory, created. A command calls it after it has built,
    and so checked, all its runs, and before it runs them through
    engine.run_batch; it then writes its files from the runs and reports. A
    path that names a file, or lies below one, is a ConfigError."""
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir (--out) {str(out)!r} is unusable: {exc.strerror}") from None
    return out


def _write_summary(path: Path, labelled) -> None:
    """One `[label]` block of engine.summarize per (label, report) pair."""
    with open(path, "w") as fh:
        for label, report in labelled:
            fh.write(f"[{label}]\n{engine.summarize(report)}\n\n")


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    record = args.record_matrices
    plan = [
        (family, run_cfg)
        for family in cfg.suite
        for run_cfg in seeded_runs(cfg, build_benchmark(cfg, family), record_matrices=record)
    ]
    out = _outdir(cfg)
    reports = engine.run_batch([run_cfg for _, run_cfg in plan])
    for (family, run_cfg), report in zip(plan, reports):
        stem = f"trace_{family}_{cfg.variant}_seed{run_cfg.master_seed}"
        engine.write_trace_csv(report, out / f"{stem}.csv")
        if report.matrices is not None:
            np.savez_compressed(out / f"{stem}_matrices.npz", *report.matrices)
    _write_summary(out / f"summary_{cfg.variant}.txt", zip((f for f, _ in plan), reports))
    print(f"wrote {len(reports)} runs to {out}")
    return EXIT_OK


def cmd_suite(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("--variants must name at least one variant")
    if len(set(variants)) < len(variants):
        raise ConfigError(f"--variants names a variant twice: {args.variants!r}")
    # Variants run to the full budget so final fitness is compared at equal
    # evaluation counts; communication cost is counted up to the first
    # disagreement-threshold crossing.
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
    # One batch per cell: the table needs only each cell's means, so a cell's
    # reports, each with its per-round traces, go before the next cell runs.
    for family, variant, run_cfgs in cells:
        cell = engine.run_batch(run_cfgs)
        finals = [r.final_fitness_mean_state for r in cell]
        bests = [r.final_best_agent_value for r in cell]
        costs = [r.comm_cost_at_convergence for r in cell]
        done = [r.converged_at for r in cell if r.converged_at is not None]
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
    plan = wsn_runs(cfg)
    out = _outdir(cfg)
    reports = engine.run_batch([run_cfg for *_, run_cfg in plan])
    errors, stems, rows = {}, [], ["num_targets,seed,final_err"]
    for (nt, objective, run_cfg), report in zip(plan, reports):
        stem = f"wsn_n{cfg.wsn.num_sensors}_t{nt}_seed{run_cfg.master_seed}"
        engine.write_trace_csv(report, out / f"{stem}.csv")
        stems.append(stem)
        err = system_error(objective.scenario, objective.phi, report.final_states)
        errors.setdefault(nt, []).append(err)
        rows.append(f"{nt},{run_cfg.master_seed},{err!r}")
    _write_summary(out / "summary_wsn.txt", zip(stems, reports))
    (out / "err_by_targets.csv").write_text("\n".join(rows) + "\n")
    hits = sum(e < SUCCESS_ERROR for e in errors[1])
    print(f"single-target runs below {SUCCESS_ERROR:g}: {hits}/{len(errors[1])}")
    means = floored_means(errors)
    for nt, mean in means.items():
        print(f"targets={nt}: mean final err (floored at {SUCCESS_ERROR:g}) {mean:.3e}")
    counts = list(means)
    trend = all(means[a] <= means[b] for a, b in zip(counts, counts[1:]))
    print(f"floored error non-decreasing in target count: {trend}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    # A probe writes no files, so it has no output directory.
    cfg = _apply_overrides(load_config(args.config), args)
    objective = build_benchmark(cfg, args.family)
    graph = build_graph(cfg, objective.num_agents)
    run_cfg = build_run_config(
        cfg, objective, graph, cfg.master_seed,
        variant="baseline", max_iterations=args.probe_length,
    )
    (report,) = engine.run_batch([run_cfg])
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
