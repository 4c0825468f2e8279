"""Outside-in layer tracing for the repository benchmark.

The tracer wraps public functions of the program's layers (``repro.sim``,
``repro.ndn``, ``repro.core``, ``repro.filters``, ``repro.crypto``,
set-up in ``repro.topology`` / ``repro.experiments.runner``,
``repro.exec`` and ``repro.baselines``) from this file, so the program
itself carries no tracing code.  A wrapper records one span per call:
``(name, start, end, parent)``, with integer nanosecond stamps from
``time.perf_counter_ns``.  Self time is the span's duration minus the
durations of its direct child spans, computed online with a stack, so
a layer's self times partition its parent's wall time exactly.

Spans are kept in memory and written out when the run ends.  A
paper-scale scenario makes millions of spans, so only the first
``span_cap`` are kept verbatim; every span, kept or not, is folded
into the per-name self time and call count.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter_ns


def _layer_targets():
    """``(group, owner, attribute)`` for every traced callable.

    ``owner`` is a class (the method is replaced on the class) or a
    module (the function is replaced in every ``repro`` module that
    imported it by name).  The group names the per-layer metric the
    span's self time is charged to.
    """
    from repro.baselines import accconf, client_side
    from repro.core.client import Client
    from repro.core.content_router import ContentRouterMixin
    from repro.core.core_router import CoreRouter
    from repro.core.edge_router import EdgeRouter
    from repro.core.intermediate_router import IntermediateRouterMixin
    from repro.core.provider import Provider
    from repro.crypto import chacha20, keywrap, rsa
    from repro.crypto.cost_model import ComputationCostModel
    from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
    from repro.crypto.sim_signature import SimulatedKeyPair, SimulatedPublicKey
    from repro.exec import cache, engine, summary
    from repro.exec.cache import RunCache
    from repro.exec.engine import ExperimentEngine
    from repro.exec.spec import ScenarioSpec
    from repro.experiments import runner
    from repro.filters.bloom import BloomFilter
    from repro.ndn.cs import ContentStore
    from repro.ndn.fib import Fib
    from repro.ndn.link import Face, Link
    from repro.ndn.network import Network
    from repro.ndn.node import AccessPoint, Node
    from repro.ndn.pit import Pit
    from repro.ndn.strategy import BestRouteStrategy
    from repro.sim.engine import Simulator
    from repro.topology import presets

    targets = [
        ("sim.loop", Simulator, "run"),
        # NDN substrate: packet dispatch and the plain forwarder roles
        # (access points, and the routers of the plain-NDN baselines).
        ("ndn.receive", Node, "receive"),
        ("ndn.receive", Node, "on_interest"),
        ("ndn.receive", Node, "on_data"),
        ("ndn.receive", Node, "on_nack"),
        ("ndn.receive", AccessPoint, "on_interest"),
        ("ndn.receive", AccessPoint, "on_data"),
        ("ndn.receive", AccessPoint, "on_nack"),
        ("ndn.face_send", Node, "send"),
        ("ndn.face_send", Face, "send"),
        ("ndn.face_send", Link, "transmit"),
        ("ndn.pit", Pit, "insert"),
        ("ndn.pit", Pit, "consume"),
        ("ndn.pit", Pit, "find"),
        ("ndn.pit", Pit, "drop_record"),
        ("ndn.pit", Pit, "purge_expired"),
        ("ndn.cs", ContentStore, "insert"),
        ("ndn.cs", ContentStore, "lookup"),
        ("ndn.fib", Node, "forward_interest"),
        ("ndn.fib", Fib, "lookup_nexthops"),
        ("ndn.fib", Fib, "lookup"),
        ("ndn.fib", BestRouteStrategy, "select"),
        # TACTIC router logic, one group per protocol role.
        ("core.edge", EdgeRouter, "on_interest"),
        ("core.edge", EdgeRouter, "on_data"),
        ("core.content", ContentRouterMixin, "serve_content"),
        ("core.intermediate", CoreRouter, "on_interest"),
        ("core.intermediate", CoreRouter, "on_data"),
        ("core.intermediate", IntermediateRouterMixin, "aggregate_or_forward"),
        ("core.intermediate", IntermediateRouterMixin, "distribute_content"),
        ("core.client", Client, "start"),
        ("core.client", Client, "on_data"),
        ("core.client", Client, "on_nack"),
        # The client's scheduled callbacks run straight from the event
        # loop; without spans their time would land in sim.loop.
        ("core.client", Client, "_pump"),
        ("core.client", Client, "_on_timeout"),
        ("core.client", Client, "_on_registration_timeout"),
        ("core.provider", Provider, "on_interest"),
        ("core.provider", Provider, "issue_tag_direct"),
        ("filters.bloom", BloomFilter, "contains"),
        ("filters.bloom", BloomFilter, "insert"),
        ("filters.bloom", BloomFilter, "insert_with_auto_reset"),
        ("filters.bloom", BloomFilter, "reset"),
        ("filters.bloom", BloomFilter, "is_saturated"),
        ("filters.bloom", BloomFilter, "current_fpp"),
        ("crypto.cost", ComputationCostModel, "sample"),
        ("crypto.rsa_sign", RsaKeyPair, "sign"),
        ("crypto.rsa_verify", RsaPublicKey, "verify"),
        ("crypto.hmac", SimulatedKeyPair, "sign"),
        ("crypto.hmac", SimulatedPublicKey, "verify"),
        ("crypto.cipher", chacha20, "chacha20_encrypt"),
        ("crypto.cipher", chacha20, "chacha20_decrypt"),
        ("crypto.cipher", keywrap, "wrap_key"),
        ("crypto.cipher", keywrap, "unwrap_key"),
        ("crypto.keygen", rsa, "generate_keypair"),
        ("crypto.keygen", SimulatedKeyPair, "generate"),
        ("setup.topology", presets, "paper_topology_plan"),
        ("setup.routes", Network, "announce_prefix"),
        ("setup.assembly", ScenarioSpec, "build"),
        ("setup.assembly", runner, "build_assembly"),
        ("setup.assembly", runner, "run_scenario"),
        ("exec.engine", ExperimentEngine, "run_specs"),
        ("exec.execute", engine, "_execute_spec"),
        ("exec.cache_probe", cache, "cache_key"),
        ("exec.cache_probe", RunCache, "get"),
        ("exec.cache_put", RunCache, "put"),
        ("exec.summarize", summary, "summarize"),
    ]
    # The baseline schemes: every method their own classes define.
    for module in (accconf, client_side):
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for name, value in vars(cls).items():
                if callable(value) and not name.startswith("__"):
                    targets.append(("baselines", cls, name))
    return targets


def _counter_targets():
    """``(counter, owner, attribute)`` for calls that are counted, not timed."""
    from repro.core.router_base import TacticRouterBase
    from repro.ndn.name import Name
    from repro.ndn.packets import Data, Interest, Nack
    from repro.sim.engine import Simulator

    return [
        ("sim.schedules", Simulator, "schedule_at"),
        ("core.bf_lookup_calls", TacticRouterBase, "bf_lookup"),
        ("ndn.packet_copies", Interest, "copy"),
        ("ndn.packet_copies", Data, "copy"),
        ("ndn.packet_copies", Nack, "copy"),
        ("ndn.names_built", Name, "__init__"),
    ]


class Patcher:
    """Replaces callables and puts the originals back.

    A class attribute is replaced on the class that defines it; a
    module-level function is replaced in every loaded ``repro`` module
    that holds it by name (callers import functions by name).
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                replacement = staticmethod(_wraps(raw.__func__, make(raw.__func__)))
            else:
                replacement = _wraps(raw, make(raw))
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            return
        original = getattr(owner, attr)
        replacement = _wraps(original, make(original))
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and module is not None:
                if module.__dict__.get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)


def _wraps(original: Callable, wrapper: Callable) -> Callable:
    return functools.update_wrapper(wrapper, original)


class Tracer:
    """Span recorder and call counter over monkey-patched callables."""

    def __init__(self, span_cap: int = 50_000) -> None:
        self.span_cap = span_cap
        self.names: List[str] = []
        self.groups: List[str] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: Open spans: ``[child_ns, seq]`` per frame.
        self.stack: List[list] = []
        #: Kept spans: ``(name_id, start_ns, end_ns, parent_seq, seq)``.
        self.spans: List[Tuple[int, int, int, int, int]] = []
        self.seq = 0
        #: One ``(run_ns, self_sum_ns)`` pair per traced ``Simulator.run``:
        #: the run span's duration and the self times charged inside it.
        self.run_checks: List[Tuple[int, int]] = []
        self._patcher = Patcher()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        observers = self._observers()
        for group, owner, attr in _layer_targets():
            observe = observers.get((owner, attr))
            self._patcher.patch(
                owner, attr, lambda fn, g=group, a=attr, o=observe: self._span(fn, g, a, o)
            )
        for counter, owner, attr in _counter_targets():
            observe = observers.get((owner, attr))
            if attr == "__init__":
                self._patcher.patch(
                    owner, attr, lambda fn, c=counter: self._name_counter(fn, c)
                )
            else:
                self._patcher.patch(
                    owner, attr, lambda fn, c=counter, o=observe: self._counter(fn, c, o)
                )

    def _observers(self) -> Dict[tuple, Callable]:
        """Result hooks: ratios are counted where the work happens."""
        from repro.core.router_base import TacticRouterBase
        from repro.exec.cache import RunCache
        from repro.ndn.cs import ContentStore

        counts = self.counts

        def cs_lookup(args, result):
            if result is not None:
                counts["ndn.cs_hits"] += 1

        def bf_lookup(args, result):
            router = args[0]
            if router.is_edge and router.config.use_bloom_filters:
                counts["core.edge_bf_lookups"] += 1
                if result[0]:
                    counts["core.edge_bf_hits"] += 1

        def cache_put(args, result):
            counts["exec.summary_bytes"] += result.stat().st_size

        return {
            (ContentStore, "lookup"): cs_lookup,
            (TacticRouterBase, "bf_lookup"): bf_lookup,
            (RunCache, "put"): cache_put,
        }

    def uninstall(self) -> None:
        self._patcher.restore()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _name_id(self, group: str, name: str) -> int:
        self.names.append(name)
        self.groups.append(group)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def _span(
        self, fn: Callable, group: str, attr: str, observe: Optional[Callable] = None
    ) -> Callable:
        sid = self._name_id(group, f"{group}:{getattr(fn, '__qualname__', attr)}")
        if group == "sim.loop":
            return self._run_span(fn, sid)
        stack, calls, self_ns = self.stack, self.calls, self.self_ns
        spans, cap, tracer = self.spans, self.span_cap, self

        def timed(*args, **kwargs):
            seq = tracer.seq
            tracer.seq = seq + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, seq]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[sid] += duration - frame[0]
                calls[sid] += 1
                if stack:
                    stack[-1][0] += duration
                if seq < cap:
                    spans.append((sid, start, end, parent, seq))

        if observe is None:
            return timed

        def observed(*args, **kwargs):
            result = timed(*args, **kwargs)
            observe(args, result)
            return result

        return observed

    def _run_span(self, fn: Callable, sid: int) -> Callable:
        """The ``Simulator.run`` span: as :meth:`_span`, plus the check
        that the self times charged inside it sum to its duration."""
        tracer = self

        def wrapper(*args, **kwargs):
            before = sum(tracer.self_ns)
            seq = tracer.seq
            tracer.seq = seq + 1
            parent = tracer.stack[-1][1] if tracer.stack else -1
            frame = [0, seq]
            tracer.stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                duration = end - start
                tracer.self_ns[sid] += duration - frame[0]
                tracer.calls[sid] += 1
                if tracer.stack:
                    tracer.stack[-1][0] += duration
                tracer.spans.append((sid, start, end, parent, seq))
                tracer.run_checks.append((duration, sum(tracer.self_ns) - before))

        return wrapper

    def _counter(
        self, fn: Callable, counter: str, observe: Optional[Callable] = None
    ) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        if observe is None:
            return counted

        def observed(*args, **kwargs):
            counts[counter] += 1
            result = fn(*args, **kwargs)
            observe(args, result)
            return result

        return observed

    def _name_counter(self, fn: Callable, counter: str) -> Callable:
        """``Name.__init__``: ``Name(name)`` returns its argument, so only
        calls that build a new instance are counted."""
        counts = self.counts

        def wrapper(self_, value=(), *args):
            if value is not self_:
                counts[counter] += 1
            return fn(self_, value, *args)

        return wrapper

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def group_self_s(self) -> Dict[str, float]:
        totals: Dict[str, int] = defaultdict(int)
        for group, ns in zip(self.groups, self.self_ns):
            totals[group] += ns
        return {group: ns / 1e9 for group, ns in totals.items()}

    def negative_self_times(self) -> List[str]:
        return [name for name, ns in zip(self.names, self.self_ns) if ns < 0]

    def write_spans(self, path) -> None:
        """One JSON line per kept span, then one line of per-name totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, start, end, parent, seq in self.spans:
                fh.write(
                    json.dumps(
                        {"seq": seq, "name": self.names[sid], "start_ns": start,
                         "end_ns": end, "parent": parent}
                    )
                    + "\n"
                )
            fh.write(
                json.dumps(
                    {
                        "totals": {
                            name: {"calls": calls, "self_ns": ns}
                            for name, calls, ns in zip(self.names, self.calls, self.self_ns)
                            if calls
                        },
                        "spans_total": self.seq,
                        "spans_kept": len(self.spans),
                    }
                )
                + "\n"
            )
