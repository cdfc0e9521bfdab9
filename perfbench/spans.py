"""Outside-in span tracing of lacmas's public functions.

Spans are recorded by replacing functions and methods with timing wrappers
from here, never by editing the package. Each wrapper is installed on the name
its caller actually resolves at call time: the engine does
`from .cooperation import project_weights`, so the wrapper goes on
`lacmas.engine.project_weights`, while methods go on their classes.

A span's self time is its duration minus the time covered by its child spans.
All wrappers share one span stack, so wrapped names must only be called from
one thread; the LLM stub's server thread calls none of them.
Spans are aggregated per name in memory (calls, self time, exceptions raised);
names in KEEP_DURATIONS also keep every call's duration for percentiles.
"""

from __future__ import annotations

import functools
import time

import lacmas.engine
import lacmas.guidance
import lacmas.scheduler
from lacmas.engine import AgentHistory
from lacmas.guidance import HeuristicProvider, LlmProvider
from lacmas.objectives import BenchmarkSpec
from lacmas.swarm import AgentSwarm
from lacmas.wsn import WsnObjectiveSet

# (owner, attribute, span name). Several attributes may share one span name.
TARGETS = (
    (lacmas.engine, "run", "engine.run"),
    (AgentHistory, "append", "engine.history_append"),
    (AgentSwarm, "step_particles", "swarm.step_particles"),
    (AgentSwarm, "inject_fused_state", "swarm.inject_fused_state"),
    (AgentSwarm, "divergence", "swarm.divergence"),
    (AgentSwarm, "representative_state", "swarm.representative_state"),
    (BenchmarkSpec, "eval_local_batch", "objectives.eval_local_batch"),
    (BenchmarkSpec, "eval_global", "objectives.eval_global"),
    (WsnObjectiveSet, "eval_local_batch", "wsn.eval_local_batch"),
    (WsnObjectiveSet, "eval_global", "wsn.eval_global"),
    (lacmas.engine, "build_descriptor", "cooperation.build_descriptor"),
    (lacmas.engine, "project_weights", "cooperation.project_weights"),
    (lacmas.engine, "assemble_mixing_matrix", "cooperation.assemble_mixing_matrix"),
    (lacmas.engine, "check_admissibility", "analysis.check_admissibility"),
    (HeuristicProvider, "advise_act", "guidance.advise_act"),
    (LlmProvider, "advise_act", "guidance.advise_act"),
    (HeuristicProvider, "advise_coop", "guidance.advise_coop"),
    (LlmProvider, "advise_coop", "guidance.advise_coop"),
    (lacmas.guidance, "llm_advise", "guidance.llm_advise"),
    (lacmas.guidance, "parse_act_response", "guidance.parse"),
    (lacmas.guidance, "parse_coop_response", "guidance.parse"),
    (lacmas.scheduler, "gate_int", "scheduler.gates"),
    (lacmas.scheduler, "gate_ext", "scheduler.gates"),
    (lacmas.scheduler, "stage", "scheduler.gates"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
KEEP_DURATIONS = ("guidance.llm_advise",)


class SpanStats:
    __slots__ = ("calls", "self_ns", "errors", "durations_ns")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.self_ns = 0
        self.errors = 0
        self.durations_ns: list[int] | None = [] if keep_durations else None


class Tracer:
    """Installs the wrappers for the duration of a `with` block."""

    def __init__(self):
        self.stats = {name: SpanStats(name in KEEP_DURATIONS) for name in SPAN_NAMES}
        self._stack: list[list[int]] = []  # one [child_ns] frame per open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack  # shared by all wrappers: any span can be a child
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.self_ns += elapsed - frame[0]
                if stats.durations_ns is not None:
                    stats.durations_ns.append(elapsed)

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
