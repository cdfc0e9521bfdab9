#!/usr/bin/env python3
"""lacmas benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload consensus_ref --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload, one table

Run it from the repository root; it imports lacmas from `src/` next to this
directory and nothing else. The workload seed derives every instance and master
seed. Seeds 0-34, 100-109 and 1000 were used while the benchmark was written;
re-check a claimed gain on a held-out seed such as 5000.

One run:
1. repeats the workload's unit (its fixed list of engine runs) back to back
   until --seconds is used up, one unit at a time (a closed loop);
2. before each unit, times set-up once in a fresh process (setup_probe.py),
   so that set-up is sampled across the same stretch of time as the units;
3. checks every engine run's output and that repeated runs give byte-identical
   trace CSVs;
4. prints the metrics by name with units, a machine record, and as the last
   line one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, measured untraced. Times
are per unit: each engine run's median over the repetitions, summed; set-up is
the median of its samples. The engine-run times that are gated are scaled to
a reference host speed by a kernel timed around each engine run (hostspeed.py);
the raw times are printed and recorded too. Set-up time is not scaled: in
fresh processes it followed the kernel only weakly, and scaling it added
spread.
With --trace 1 untraced and traced repetitions alternate; the traced ones give
the per-layer metrics (spans.py) and their ratio gives the tracing overhead.
Span counts are reconciled with the engine's own RunReport counters, and a span
a workload must exercise that records no call fails the run.

A result file with the same content plus every run's trace digest goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("consensus_ref", "wsn_llm")
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)

# One BLAS/OpenMP thread: the stub server thread plus the main thread must fit
# in two CPUs, and OpenBLAS would otherwise start a pool at the first matmul.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NO_PROXY": "127.0.0.1,localhost",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload: str, seed: int) -> dict:
    """One set-up sample, {"import_s", "build_s"}, from a fresh process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def os_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            return next(int(ln.split()[1]) for ln in fh if ln.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def run_unit(jobs, tracer=None):
    """One pass over the workload's jobs, each traced when a tracer is given.

    The host-speed kernel (hostspeed.py) runs before the first job and after
    every job; a job's kernel time is the mean of the two around it."""
    import hostspeed
    import lacmas.engine
    import workloads

    outcomes = []
    scratch = OUT / "trace.csv"
    before = hostspeed.calibrate()
    for job in jobs:
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            report = lacmas.engine.run(job.config)
            seconds = time.perf_counter() - start
        after = hostspeed.calibrate()
        outcomes.append(workloads.check(job, report, seconds, (before + after) / 2, scratch))
        before = after
    return outcomes


def unit_seconds(reps, scaled: bool = True) -> float:
    """Per-job median over repetitions, summed over the unit's jobs."""
    import hostspeed

    def one(o):
        return hostspeed.scale(o.seconds, o.kernel_s, o.sleep_s) if scaled else o.seconds

    return sum(statistics.median(one(rep[j]) for rep in reps) for j in range(len(reps[0])))


def setup_seconds(setup, *parts: str) -> float:
    """Median over the set-up samples of the named parts' summed time."""
    return statistics.median(sum(s[p] for p in parts) for s in setup)


def repeat_units(workload: str, seed: int, jobs, seconds: float, traced: bool):
    """Closed loop of units, each after one set-up sample, until the time is used up.

    Returns (untraced reps, traced reps, tracers, set-up samples). With
    traced=True the units alternate untraced, traced, ... and at least one of
    each runs.
    """
    import spans

    plain, traced_reps, tracers, setup = [], [], [], []
    start = time.perf_counter()
    while True:
        setup.append(probe_setup(workload, seed))
        if traced and len(plain) > len(traced_reps):
            tracer = spans.Tracer()
            traced_reps.append(run_unit(jobs, tracer))
            tracers.append(tracer)
        else:
            plain.append(run_unit(jobs))
        done = len(plain) + len(traced_reps)
        elapsed = time.perf_counter() - start
        if done >= (2 if traced else 1) and elapsed + elapsed / done > seconds:
            return plain, traced_reps, tracers, setup


def tail_latency(durations_ns: list[int]) -> tuple[float, float, float]:
    """(p50 us, tail us, tail percentile): the tail is the highest percentile
    with at least ten calls beyond it; 0 when there are too few calls."""
    if not durations_ns:
        return 0.0, 0.0, 0.0
    us = sorted(d / 1e3 for d in durations_ns)
    p50 = statistics.median(us)
    for pct in TAIL_PERCENTILES:
        if len(us) * (1 - pct / 100) >= 10:
            index = min(len(us) - 1, int(round(pct / 100 * (len(us) - 1))))
            return p50, us[index], pct
    return p50, 0.0, 0.0


def layer_metrics(workload, jobs, plain, traced_reps, tracers, setup, problems) -> dict:
    import llm_stub
    import spans
    import workloads

    first = traced_reps[0]
    agent_rounds = sum(o.agent_rounds for o in first)
    values: dict[str, tuple[float, str]] = {}
    for name in spans.SPAN_NAMES:
        counts = {t.stats[name].calls for t in tracers}
        if len(counts) != 1:
            problems.append(f"span {name} counted {sorted(counts)} calls across repetitions")
        values[f"{name}.self_s"] = (statistics.median(t.stats[name].self_ns / 1e9 for t in tracers), "s")
        values[f"{name}.calls"] = (float(tracers[0].stats[name].calls), "count")

    stats = tracers[0].stats
    for name in workloads.expected_spans(workload):
        if stats[name].calls == 0:
            problems.append(f"span {name} recorded no call")
    advise = stats["guidance.advise_act"].calls + stats["guidance.advise_coop"].calls
    reported = sum(o.act_calls + o.coop_calls for o in first)
    if advise != reported:
        problems.append(f"advise spans {advise} != act_calls + coop_calls {reported}")
    span_fallbacks = stats["guidance.llm_advise"].errors + stats["guidance.parse"].errors
    reported_fallbacks = sum(o.fallbacks for o in first)
    if span_fallbacks != reported_fallbacks:
        problems.append(f"fallback spans {span_fallbacks} != provider_fallbacks {reported_fallbacks}")
    llm_calls = stats["guidance.llm_advise"].calls
    if workload in workloads.USES_LLM and llm_calls != advise:
        problems.append(f"llm_advise calls {llm_calls} != advise calls {advise}")
    steps = stats["swarm.step_particles"].calls
    if steps != agent_rounds:
        problems.append(f"step_particles calls {steps} != agent-rounds {agent_rounds}")
    if stats["engine.run"].calls != len(jobs):
        problems.append(f"engine.run calls {stats['engine.run'].calls} != jobs {len(jobs)}")

    evals = stats["objectives.eval_local_batch"].calls + stats["wsn.eval_local_batch"].calls
    durations = [d for t in tracers for d in t.stats["guidance.llm_advise"].durations_ns]
    p50, tail, pct = tail_latency(durations)
    values.update(
        {
            "objectives.evals_per_agent_round": (evals / agent_rounds, "ratio"),
            "guidance.llm_advise.us_p50": (p50, "us"),
            "guidance.llm_advise.us_tail": (tail, "us"),
            "guidance.llm_advise.tail_pct": (pct, "%"),
            "guidance.llm_advise.tail_samples": (float(len(durations)), "count"),
            "guidance.llm_advise.wait_s": (llm_calls * llm_stub.DELAY_S, "s"),
            "guidance.fallback_frac": (span_fallbacks / llm_calls if llm_calls else 0.0, "ratio"),
            "engine.rounds": (float(sum(o.rounds for o in first)), "count"),
            "setup.import_s": (setup_seconds(setup, "import_s"), "s"),
            "setup.build_s": (setup_seconds(setup, "build_s"), "s"),
            "trace.overhead_frac": (unit_seconds(traced_reps) / unit_seconds(plain) - 1.0, "ratio"),
        }
    )
    return values


def run_workload(args) -> int:
    if not (SRC / "lacmas" / "__init__.py").is_file():
        print(f"error: no lacmas package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    # One CPU for the whole process, the stub's server thread included: a
    # guidance call hands off between the engine and the stub twice, and
    # across two vCPUs of a busy host each hand-off waited for the hypervisor
    # to wake the other vCPU, so wsn_llm's time followed host load far more
    # than the host-speed kernel did. Set-up probes inherit the CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lacmas

    if Path(lacmas.__file__).resolve().parent != SRC / "lacmas":
        print(f"error: imported lacmas from {lacmas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import llm_stub
    import workloads

    OUT.mkdir(exist_ok=True)
    uses_llm = args.workload in workloads.USES_LLM
    with llm_stub.LlmStub() if uses_llm else contextlib.nullcontext() as stub:
        url = stub.url if uses_llm else None
        jobs = workloads.BUILDERS[args.workload](args.seed, url)
        plain, traced_reps, tracers, setup = repeat_units(
            args.workload, args.seed, jobs, args.seconds, bool(args.trace)
        )
        threads = os_threads()

    problems: list[str] = []
    if threads is not None and threads > max(os.cpu_count() or 1, 2):
        problems.append(f"{threads} OS threads for {os.cpu_count()} CPUs")
    reps = plain + traced_reps
    attempted = sum(len(rep) for rep in reps)
    failed = 0
    for rep in reps:
        for ref, o in zip(reps[0], rep):
            bad = list(o.problems)
            if o.digest != ref.digest:
                bad.append("trace CSV differs from the first repetition")
            failed += bool(bad)
            problems += [f"{o.label}: {p}" for p in bad]

    outcome = workloads.outcome_metrics(reps[0])
    outcome["failed_frac"] = (failed / attempted, "ratio")
    if args.trace:
        values = layer_metrics(args.workload, jobs, plain, traced_reps, tracers, setup, problems)
        values.update({f"outcome.{k}": v for k, v in outcome.items()})
    else:
        agent_rounds = sum(o.agent_rounds for o in reps[0])
        wall = unit_seconds(plain)
        values = {
            "scaled_wall_s": (wall, "s"),
            "scaled_agent_rounds_per_s": (agent_rounds / wall, "1/s"),
            "setup_s": (setup_seconds(setup, "import_s", "build_s"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        # Printed next to the gated metrics but not gated. Raw times follow the
        # host's speed (see hostspeed.py). The outcome figures: on wsn_llm their
        # spread across workload seeds is wider than any bound the gate allows,
        # and failed_frac is 0 on correct code.
        raw_wall = unit_seconds(plain, scaled=False)
        kernels = [o.kernel_s for rep in plain for o in rep]
        for k, (v, unit) in {
            "wall_s": (raw_wall, "s"),
            "agent_rounds_per_s": (agent_rounds / raw_wall, "1/s"),
            "host_kernel_ms_p50": (1e3 * statistics.median(kernels), "ms"),
            **outcome,
        }.items():
            print(f"{k} = {v:.6g} {unit}")

    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    for p in problems:
        print(f"check failed: {p}")
    digests = {o.label: o.digest for o in reps[0]}
    for label, digest in digests.items():
        print(f"trace_digest {label} {digest}")
    machine = machine_info() | {"os_threads": threads}
    print("machine " + json.dumps(machine))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "job_seconds": {
            "untraced": [[(o.seconds, o.kernel_s, o.sleep_s) for o in rep] for rep in plain],
            "traced": [[(o.seconds, o.kernel_s, o.sleep_s) for o in rep] for rep in traced_reps],
        },
        "setup_samples": setup,
        "machine": machine,
        "metrics": metrics,
        "outcome": {k: v for k, (v, _) in outcome.items()},
        "trace_digests": digests,
        "problems": problems,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; all metrics printed."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
