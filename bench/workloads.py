"""The benchmark's three workloads and the loop that times them.

An operation is one simulated scenario (or, for ``artifact_fleet``,
one cold pass of the seven artifact drivers plus a warm replay) and
its checks.  It fails if it raises or if a check fails.

A run makes one untimed warm-up operation, then repeats whole
*rounds*.  A round is one operation per scenario
seed the run seed makes: run seed ``s`` of a workload with ``per_round
= K`` simulates scenario seeds ``K*s .. K*s+K-1``.  One small scenario
depends strongly on its seed, so a round averages K of them.  Every
round of a run executes the same inputs, so rounds must agree exactly
on every deterministic count.
"""

from __future__ import annotations

import gc
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from checks import (
    check_client_tags,
    check_filter_resets,
    check_fleet,
    check_scenario,
    check_topo4_counts,
    scenario_facts,
)
from tracing import Patcher, Tracer, clock

#: Virtual seconds after the request window, so every request resolves
#: (data, NACK, or its 1 s expiry) before the run ends.
DRAIN_S = 1.1


@dataclass
class OpResult:
    """Host times and deterministic counts of one operation."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Program time of the whole operation (set-up + work).
    total_s: float = 0.0
    events: int = 0
    chunks: int = 0
    failures: List[str] = field(default_factory=list)
    facts: List[dict] = field(default_factory=list)
    replay_s: float = 0.0
    tracer: Optional[Tracer] = None

    def counts(self) -> tuple:
        """What every operation of a run must reproduce exactly."""
        return (self.events, self.chunks) + tuple(
            (f["events"], f["client_received"], f["bf_resets"], f["sig_verifications"])
            for f in self.facts
        )


class Probe:
    """Light per-scenario instrumentation, on in every run.

    It stamps the set-up interval of each scenario (from scenario or
    spec construction to the entry of ``Simulator.run``), keeps the
    facts of every executed scenario, and keeps the summaries each
    engine call returns.  It wraps a handful of calls per scenario, so
    it does not move the timings.
    """

    def __init__(self, keep_results: bool) -> None:
        self.keep_results = keep_results
        self.setup_began: Optional[int] = None
        self.setup_ns = 0
        self.facts: List[dict] = []
        self.results: list = []
        self.phase = "cold"
        self.summaries: Dict[str, Dict[str, list]] = {"cold": {}, "warm": {}}
        self._patcher = Patcher()

    def install(self) -> None:
        from repro.exec.engine import ExperimentEngine
        from repro.exec.spec import ScenarioSpec
        from repro.experiments import runner
        from repro.sim.engine import Simulator

        probe = self

        def on_build(fn):
            def build(*args, **kwargs):
                probe.setup_began = clock()
                return fn(*args, **kwargs)

            return build

        def on_run(fn):
            def run(*args, **kwargs):
                if probe.setup_began is not None:
                    probe.setup_ns += clock() - probe.setup_began
                    probe.setup_began = None
                return fn(*args, **kwargs)

            return run

        def on_scenario(fn):
            def run_scenario(*args, **kwargs):
                result = fn(*args, **kwargs)
                probe.facts.append(scenario_facts(result))
                if probe.keep_results:
                    probe.results.append(result)
                return result

            return run_scenario

        def on_engine(fn):
            def run_specs(engine, specs, figure=""):
                summaries = fn(engine, specs, figure=figure)
                probe.summaries[probe.phase][figure] = list(summaries)
                return summaries

            return run_specs

        self._patcher.patch(ScenarioSpec, "build", on_build)
        self._patcher.patch(Simulator, "run", on_run)
        self._patcher.patch(runner, "run_scenario", on_scenario)
        self._patcher.patch(ExperimentEngine, "run_specs", on_engine)

    def uninstall(self) -> None:
        self._patcher.restore()

    def reset(self) -> None:
        self.setup_began = None
        self.setup_ns = 0
        self.facts = []
        self.results = []
        self.phase = "cold"
        self.summaries = {"cold": {}, "warm": {}}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class _PaperTopology:
    """One Table III topology per operation, run through ``run_scenario``."""

    keep_results = True
    topology: int
    scale: float
    duration: float
    overrides: dict

    def __init__(self, scratch: Path) -> None:
        pass

    def execute(self, probe: Probe, seed: int) -> dict:
        from repro.core.config import TacticConfig
        from repro.experiments import runner
        from repro.experiments.scenario import Scenario

        scenario = Scenario.paper_topology(
            self.topology, duration=self.duration, seed=seed, scale=self.scale,
            config=TacticConfig(drain_time=DRAIN_S, **self.overrides),
        )
        runner.run_scenario(scenario)
        return {}


class PaperTopo4(_PaperTopology):
    """Table III topology 4 at paper scale, TACTIC defaults: the read
    path (Bloom-filter hits at the edge, ~12-hop forwarding)."""

    name = "paper_topo4"
    per_round = 2
    topology, scale = 4, 1.0
    #: Virtual request window (s).  Clients start uniformly in [0, 1) s.
    duration = 0.75
    overrides: dict = {}

    def check(self, outcome: dict, probe: Probe) -> List[str]:
        return check_topo4_counts(probe.results[0])


class EdgeAuth(_PaperTopology):
    """Topology 1 at scale 0.3 in the Section 4.A mode: real RSA tags,
    per-Interest client signatures verified at the edge, tiny filters
    and short-lived tags (the write side of TACTIC state)."""

    name = "edge_auth"
    per_round = 2
    topology, scale = 1, 0.3
    duration = 3.0
    overrides = dict(
        signature_scheme="rsa", client_signatures=True, bf_capacity=6, tag_expiry=2.0
    )

    def check(self, outcome: dict, probe: Probe) -> List[str]:
        result = probe.results[0]
        return check_filter_resets(result) + check_client_tags(result)


def _fleet_drivers() -> Dict[str, tuple]:
    """Artifact -> (reproduce function, arguments), at the smallest sizes
    where the checked properties hold on every seed tried."""
    from repro.experiments.fig5_latency import reproduce_fig5
    from repro.experiments.fig6_tag_rates import reproduce_fig6
    from repro.experiments.fig7_operations import reproduce_fig7
    from repro.experiments.fig8_bf_reset import reproduce_fig8
    from repro.experiments.table2_comparison import reproduce_table2
    from repro.experiments.table4_delivery import reproduce_table4
    from repro.experiments.table5_bf_resets import reproduce_table5

    small = dict(duration=1.0, scale=0.1)
    # Table II's no_bloom verifies once per content-router request, TACTIC
    # about once per tag and router: only a 4 s window makes the ratio
    # exceed 100 on every seed tried.
    cached = dict(duration=4.0, scale=0.1)
    # Fig. 8 and Table V need filters that saturate within the window:
    # more users than scale 0.1 gives, and a 3-tag capacity.
    saturating = dict(duration=1.5, scale=0.2)
    return {
        "fig5": (reproduce_fig5, small),
        "fig6": (reproduce_fig6, small),
        "fig7": (reproduce_fig7, small),
        "fig8": (reproduce_fig8, dict(saturating, bf_capacity=3)),
        "table2": (reproduce_table2, cached),
        "table4": (reproduce_table4, small),
        "table5": (reproduce_table5, dict(saturating, small_capacity=3, large_capacity=30)),
    }


class ArtifactFleet:
    """The seven artifact drivers at ``jobs=1`` over a fresh run cache,
    then the same calls again as a warm replay from that cache."""

    name = "artifact_fleet"
    keep_results = False
    per_round = 2

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def execute(self, probe: Probe, seed: int) -> dict:
        cache_dir = tempfile.mkdtemp(prefix="runcache-", dir=self.scratch)
        rows: Dict[str, list] = {}
        drivers = _fleet_drivers()
        for name, (reproduce, args) in drivers.items():
            rows[name] = reproduce(seed=seed, jobs=1, cache_dir=cache_dir, **args)
        probe.phase = "warm"
        began = clock()
        for name, (reproduce, args) in drivers.items():
            rows[name + "/warm"] = reproduce(seed=seed, jobs=1, cache_dir=cache_dir, **args)
        return {"rows": rows, "replay_s": (clock() - began) / 1e9, "cache_dir": cache_dir}

    def check(self, outcome: dict, probe: Probe) -> List[str]:
        shutil.rmtree(outcome["cache_dir"], ignore_errors=True)
        return check_fleet(outcome["rows"], probe.summaries)


WORKLOADS = {w.name: w for w in (PaperTopo4, EdgeAuth, ArtifactFleet)}


# ----------------------------------------------------------------------
# The operation loop
# ----------------------------------------------------------------------
def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_op(workload, seed: int, probe: Probe, tracer: Optional[Tracer] = None) -> OpResult:
    """Execute and check one operation; time only the program's work."""
    gc.collect()
    probe.reset()
    op = OpResult(tracer=tracer)
    if tracer is not None:
        tracer.install()
    cpu_began = _cpu_s()
    began = clock()
    probe.setup_began = began
    try:
        outcome = workload.execute(probe, seed)
    except Exception:
        op.failures.append("raised: " + traceback.format_exc())
        outcome = None
    finally:
        ended = clock()
        op.cpu_s = _cpu_s() - cpu_began
        if tracer is not None:
            tracer.uninstall()
    op.total_s = (ended - began) / 1e9
    op.setup_s = probe.setup_ns / 1e9
    op.wall_s = op.total_s - op.setup_s
    op.facts = probe.facts
    op.events = sum(f["events"] for f in probe.facts)
    op.chunks = sum(f["client_received"] for f in probe.facts)
    if outcome is not None:
        op.replay_s = outcome.get("replay_s", 0.0)
        try:
            for facts in probe.facts:
                op.failures.extend(check_scenario(facts))
            op.failures.extend(workload.check(outcome, probe))
        except Exception:
            op.failures.append("check raised: " + traceback.format_exc())
    probe.reset()
    for failure in op.failures:
        print(f"[{workload.name}] FAILED: {failure}", file=sys.stderr)
    return op


def scenario_seeds(workload, seed: int) -> List[int]:
    k = workload.per_round
    return [k * seed + j for j in range(k)]


def run_rounds(
    workload,
    seed: int,
    probe: Probe,
    seconds: float,
    make_tracer: Callable[[], Optional[Tracer]],
    warm_up: bool = True,
) -> Tuple[List[OpResult], List[List[OpResult]]]:
    """An untimed warm-up operation, then whole rounds until ``seconds``
    have passed since the start (at least one round).

    The warm-up runs the round's first scenario: a process's first
    operation runs slower while the interpreter's heap grows, and
    whether a run fits two or three rounds must not decide whether that
    cost lands in its median.  Returns ``(warm_up_ops, rounds)``.
    """
    began = time.perf_counter()
    seeds = scenario_seeds(workload, seed)
    warm = [run_op(workload, seeds[0], probe)] if warm_up else []
    rounds = []
    while True:
        rounds.append([run_op(workload, s, probe, make_tracer()) for s in seeds])
        if time.perf_counter() - began >= seconds:
            return warm, rounds
