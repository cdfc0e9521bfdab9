#!/usr/bin/env python3
"""Reference consensus experiment: every seeded run of the preset
configs/reference.json on its benchmark family.

Prints per-seed convergence iterations and a summary; writes CSV traces under
the preset's output_dir.
"""

import sys
import time
from pathlib import Path

import numpy as np

from lacmas.config import build_benchmark, build_graph, build_run_config, load_config
from lacmas.engine import run, write_trace_csv

PRESET = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


def main() -> int:
    cfg = load_config(PRESET)
    spec = build_benchmark(cfg, cfg.suite[0])
    graph = build_graph(cfg, spec.num_agents)
    run_cfgs = [
        build_run_config(cfg, spec, graph, cfg.master_seed + k) for k in range(cfg.num_runs)
    ]
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    converged = []
    for run_cfg in run_cfgs:
        seed = run_cfg.master_seed
        report = run(run_cfg)
        write_trace_csv(report, out / f"trace_seed{seed}.csv")
        converged.append(report.converged_at)
        print(f"seed {seed:2d}: converged_at={report.converged_at} "
              f"final_disagreement={report.disagreement_trace[-1]:.3e}")
    elapsed = time.perf_counter() - start
    done = [c for c in converged if c is not None]
    print(f"\n{len(done)}/{len(run_cfgs)} runs converged; "
          f"median iteration {int(np.median(done)) if done else 'n/a'}; "
          f"total {elapsed:.1f}s")
    return 0 if len(done) == len(run_cfgs) else 1


if __name__ == "__main__":
    sys.exit(main())
