"""Correctness checks for the benchmark's operations.

Every expected value here comes from the paper or is computed
independently in this file (Bloom-filter saturation from the FPP
formula, PKCS#1 v1.5 verification, a Poisson tail) -- never from a
stored copy of an earlier run's output.  Each check returns a list of
failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Dict, List, Optional

#: Table III of the paper, topology 4.
TABLE_III_TOPO4 = {"core": 560, "edge": 40, "providers": 10, "clients": 213, "attackers": 87}

#: Lowest acceptable client delivery ratio on lossless links.
MIN_CLIENT_DELIVERY = 0.99

#: Tail probability at which the attacker false-positive allowance is set.
FP_TAIL = 1e-9

#: Schemes whose routers enforce access control (attackers get nothing
#: but Bloom-filter false positives).
ROUTER_ENFORCED = ("tactic", "no_bloom")

#: The paper's base Bloom-filter capacity (Section 8.A).
PAPER_BF_CAPACITY = 500

# DER DigestInfo prefix for SHA-256 (RFC 8017, section 9.2, note 1).
_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")


def scenario_facts(result) -> Dict[str, object]:
    """The plain numbers the checks and metrics need from one run."""
    metrics = result.metrics
    edge = metrics.merged_counters(edge=True)
    core = metrics.merged_counters(edge=False)
    identity_violations = [
        user.user_id
        for user in metrics.users.values()
        if user.chunks_requested
        != user.chunks_received + user.timeouts + user.nacks_received
    ]
    return {
        "scheme": result.scenario.scheme,
        "label": result.scenario.label,
        "events": result.sim.events_executed,
        "client_requested": metrics.total_requested(False),
        "client_received": metrics.total_received(False),
        "attacker_received": metrics.total_received(True),
        "fake_tag_received": sum(
            a.stats.chunks_received for a in result.attackers if a.mode.name == "FAKE_TAG"
        ),
        "attacker_usable": metrics.total_usable(True),
        "identity_violations": identity_violations,
        "use_bloom_filters": result.config.use_bloom_filters,
        "bf_capacity": result.config.bf_capacity,
        "max_fpp": result.config.bf_max_fpp,
        "bf_lookups": edge.bf_lookups + core.bf_lookups,
        "bf_inserts": edge.bf_inserts + core.bf_inserts,
        "bf_resets": edge.bf_resets + core.bf_resets,
        "sig_verifications": edge.signature_verifications + core.signature_verifications,
        "client_sig_verifications": edge.client_sig_verifications
        + core.client_sig_verifications,
        "nacks": edge.nacks_issued + core.nacks_issued,
        "tags_issued": sum(p.stats.tags_issued for p in result.providers),
    }


def poisson_upper(lam: float, tail: float = FP_TAIL) -> int:
    """Smallest k with P(X > k) < tail for X ~ Poisson(lam)."""
    if lam <= 0.0:
        return 0
    k = 0
    pmf = math.exp(-lam)
    cdf = pmf
    while 1.0 - cdf >= tail:
        k += 1
        pmf *= lam / k
        cdf += pmf
        if pmf == 0.0 and k > lam:
            break
    return k


def check_scenario(facts: Dict[str, object]) -> List[str]:
    """Per-run properties every workload shares."""
    label = f"{facts['scheme']}/{facts['label']}"
    failures = []
    if facts["identity_violations"]:
        failures.append(
            f"{label}: requested != received + timeouts + NACKs for "
            f"{len(facts['identity_violations'])} users"
        )
    requested = facts["client_requested"]
    if requested == 0:
        failures.append(f"{label}: clients requested nothing")
    elif facts["scheme"] == "provider_auth":
        # Not checked: its plain routers copy a NACK attached for one
        # requester's tag to every requester aggregated on the same PIT
        # entry, so a client aggregated behind an attacker is denied.
        # How often that happens depends on the seed.
        pass
    elif facts["client_received"] / requested < MIN_CLIENT_DELIVERY:
        failures.append(
            f"{label}: client delivery {facts['client_received']}/{requested} "
            f"below {MIN_CLIENT_DELIVERY}"
        )
    if facts["scheme"] in ROUTER_ENFORCED and facts["bf_capacity"] >= PAPER_BF_CAPACITY:
        # A fake tag passes only through a Bloom-filter false positive,
        # each lookup with probability <= max FPP.  The bound treats
        # lookups as independent, which holds while filters stay far
        # from saturation.  A false positive is a property of the key and
        # the filter's bits, though: in a filter of a few tags that stops
        # changing, every request carrying a colliding fake tag hits
        # again, so one collision can carry many deliveries: not checked
        # there.  The other attacker modes are not checked either: the
        # edge router hands NACK-free Data to a tag-less requester
        # aggregated behind a client, so a no-tag attacker can receive
        # private chunks, on some seeds only.
        lam = facts["bf_lookups"] * facts["max_fpp"] if facts["use_bloom_filters"] else 0.0
        allowance = poisson_upper(lam)
        if facts["fake_tag_received"] > allowance:
            failures.append(
                f"{label}: fake-tag attackers received {facts['fake_tag_received']} "
                f"chunks, false-positive allowance {allowance} (lambda {lam:.3g})"
            )
    return failures


def check_topo4_counts(result) -> List[str]:
    """The assembled network matches Table III, topology 4, exactly."""
    from repro.core.core_router import CoreRouter
    from repro.core.edge_router import EdgeRouter

    nodes = result.network.nodes.values()
    plan = result.scenario.plan
    found = {
        "core": sum(isinstance(n, CoreRouter) for n in nodes),
        "edge": sum(isinstance(n, EdgeRouter) for n in nodes),
        "providers": len(result.providers),
        "clients": len(result.clients),
        "attackers": len(result.attackers),
    }
    planned = {
        "core": len(plan.core_ids),
        "edge": len(plan.edge_ids),
        "providers": len(plan.provider_ids),
        "clients": len(plan.client_ids),
        "attackers": len(plan.attacker_ids),
    }
    return [
        f"topology 4 {kind}: planned {planned[kind]}, assembled {found[kind]}, "
        f"Table III {want}"
        for kind, want in TABLE_III_TOPO4.items()
        if found[kind] != want or planned[kind] != want
    ]


def bloom_bits(capacity: int, sizing_fpp: float, k: int) -> int:
    """m for which n = capacity items reach ``sizing_fpp``:
    m = -k n / ln(1 - p^(1/k)), rounded up (at least k)."""
    return max(k, math.ceil(-k * capacity / math.log(1.0 - sizing_fpp ** (1.0 / k))))


def saturation_inserts(m: int, k: int, max_fpp: float) -> int:
    """n*: the smallest n with (1 - e^(-k n / m))^k >= max_fpp."""
    n = 1
    while (1.0 - math.exp(-k * n / m)) ** k < max_fpp:
        n += 1
    return n


def check_filter_resets(result) -> List[str]:
    """Every router filter resets exactly once per n* inserts."""
    config = result.config
    k = config.bf_num_hashes
    m = bloom_bits(config.bf_capacity, config.bf_sizing_fpp, k)
    n_star = saturation_inserts(m, k, config.bf_max_fpp)
    failures = []
    total_resets = 0
    for node in result.network.nodes.values():
        bloom = getattr(node, "bloom", None)
        if bloom is None:
            continue
        total_resets += bloom.reset_count
        if bloom.size_bits != m:
            failures.append(f"{node.node_id}: filter has {bloom.size_bits} bits, expected {m}")
        if bloom.reset_count != bloom.total_inserts // n_star:
            failures.append(
                f"{node.node_id}: {bloom.reset_count} resets after "
                f"{bloom.total_inserts} inserts, expected {bloom.total_inserts // n_star} "
                f"(n* = {n_star})"
            )
    if total_resets == 0:
        failures.append("no Bloom-filter reset fired")
    return failures


def tag_signed_bytes(tag) -> bytes:
    """The tag's five signed fields in the paper's order, encoded as
    ``TACTICv1|Pub_p|Pub_u|AL|AP|expiry`` (AL as a signed 32-bit
    integer, -1 for public; expiry as a big-endian double)."""
    level = -1 if tag.access_level is None else tag.access_level
    return b"|".join(
        [
            b"TACTICv1",
            tag.provider_key_locator.encode("utf-8"),
            tag.client_key_locator.encode("utf-8"),
            struct.pack(">i", level),
            tag.access_path,
            struct.pack(">d", tag.expiry),
        ]
    )


def pkcs1_sha256_verify(n: int, e: int, message: bytes, signature: bytes) -> bool:
    """RSASSA-PKCS1-v1_5 verification with SHA-256 (RFC 8017, 8.2.2)."""
    k = (n.bit_length() + 7) // 8
    if len(signature) != k:
        return False
    s = int.from_bytes(signature, "big")
    if s >= n:
        return False
    em = pow(s, e, n).to_bytes(k, "big")
    t = _SHA256_DIGEST_INFO + hashlib.sha256(message).digest()
    if k < len(t) + 11:
        return False
    return em == b"\x00\x01" + b"\xff" * (k - len(t) - 3) + b"\x00" + t


def check_client_tags(result) -> List[str]:
    """Every tag a client holds carries a valid provider RSA signature."""
    keys = {p.node_id: p.keypair.public for p in result.providers}
    failures = []
    checked = 0
    for client in result.clients:
        for provider_id, tag in client.tags.items():
            public = keys[provider_id]
            checked += 1
            if not pkcs1_sha256_verify(public.n, public.e, tag_signed_bytes(tag), tag.signature):
                failures.append(f"{client.node_id}: tag from {provider_id} fails RSA verification")
    if checked == 0:
        failures.append("no client holds a tag")
    return failures


def check_fleet(rows: Dict[str, list], summaries: Dict[str, Dict[str, list]]) -> List[str]:
    """The artifact properties, and cold/warm agreement.

    ``rows`` maps an artifact to its cold-pass rows and
    ``rows[name + "/warm"]`` to the replayed ones; ``summaries`` maps
    ``cold``/``warm`` to the summaries each engine call returned, by
    figure.
    """
    failures = []
    table2 = {m.scheme: m for m in rows["table2"]}
    tactic, no_bloom = table2["tactic"], table2["no_bloom"]
    if not (
        no_bloom.router_verifications_per_kchunk > 0
        and no_bloom.router_verifications_per_kchunk
        >= 100 * tactic.router_verifications_per_kchunk
    ):
        failures.append(
            f"table2: no_bloom {no_bloom.router_verifications_per_kchunk:.1f} router "
            f"verifications per 1k chunks, tactic {tactic.router_verifications_per_kchunk:.1f}"
        )
    for summary in summaries["cold"]["table2"]:
        if summary.scheme in ("client_side", "accconf") and not (
            summary.attacker_received > 0 and summary.attacker_usable == 0
        ):
            failures.append(
                f"table2: {summary.scheme} attackers received {summary.attacker_received}, "
                f"usable {summary.attacker_usable}"
            )
    if not table2["provider_auth"].origin_chunks_served > tactic.origin_chunks_served:
        failures.append(
            f"table2: provider_auth origin chunks {table2['provider_auth'].origin_chunks_served} "
            f"not above tactic {tactic.origin_chunks_served}"
        )

    resets: Dict[tuple, int] = {
        (p.tag_expiry, p.max_fpp): p.edge_resets + p.core_resets for p in rows["fig8"]
    }
    for expiry in sorted({te for te, _ in resets}):
        strict, loose = resets[(expiry, 1e-4)], resets[(expiry, 1e-2)]
        if not (strict > 0 and loose <= strict):
            failures.append(f"fig8 TE={expiry}: resets {strict} at FPP 1e-4, {loose} at 1e-2")
    for row in rows["table5"]:
        if row.edge_resets_large > row.edge_resets_small or (
            row.core_resets_large > row.core_resets_small
        ):
            failures.append(f"table5 FPP={row.max_fpp}: the larger filter reset more often")

    for figure, cold in summaries["cold"].items():
        warm: Optional[list] = summaries["warm"].get(figure)
        if warm != cold:
            failures.append(f"{figure}: warm replay summaries differ from the cold pass")
        elif not all(s.cached for s in warm):
            failures.append(f"{figure}: warm replay missed the run cache")
    for name in list(rows):
        if not name.endswith("/warm") and rows[name] != rows[name + "/warm"]:
            failures.append(f"{name}: warm replay rows differ from the cold pass")
    return failures
