"""Local and global response flows, including an active map tamperer.

A one-hop group exchanges authenticated detector maps (one neighbor's reply
gets a bit flipped in flight and is excluded), the initiator picks its safest
forwarder, then a node whose map crossed the two-thirds trigger raises a
group-keyed alarm and everyone in range quarantines it.
"""

import random

from manetsec.crypto import CipherSuite, KeyMaterial, NonceSource
from manetsec.response import (
    RoutingTable,
    SecurityMap,
    check_global_trigger,
    distribute_local_maps,
    format_events,
    global_alarm,
    select_forwarding_node,
)

suite = CipherSuite()
rng = random.Random(1)

# node 1's one-hop group: 2, 3, 4, 7 with pairwise local keys
neighbors = {2, 3, 4, 7}
local_keys = {j: KeyMaterial.random(rng) for j in neighbors}
maps = {
    1: SecurityMap(1, 2, 40, model_bytes=b"map-of-1"),
    2: SecurityMap(2, 0, 40, model_bytes=b"map-of-2"),
    3: SecurityMap(3, 36, 40, model_bytes=b"map-of-3"),   # badly compromised
    4: SecurityMap(4, 5, 40, model_bytes=b"map-of-4"),
    7: SecurityMap(7, 1, 40, model_bytes=b"map-of-7"),
}


def adversary(step, sender, receiver, payload, digest):
    if step == "reply" and sender == 4:
        body = bytearray(payload)
        body[3] ^= 0x08  # one flipped bit in node 4's map
        return bytes(body), digest
    return payload, digest


print("== local map distribution (node 4's reply is tampered in flight) ==")
res = distribute_local_maps(suite, 1, local_keys, maps,
                            NonceSource(rng), now=12.0, channel=adversary)
for nid in sorted(res.glm.entries):
    cov, verdict = res.glm.entries[nid]
    print(f"  node {nid}: coverage {cov:.2f} -> {verdict}")
print(f"  tampered: {sorted(res.tampered)}, missing: {sorted(res.missing)}")

choice = select_forwarding_node(res.glm, {2, 3, 7})
print(f"\nforwarder among {{2, 3, 7}}: node {choice} "
      "(lowest coverage, attack-dominant nodes excluded)")

print("\n== global alarm ==")
victim_map = SecurityMap(4, 28, 30, model_bytes=b"map-of-4")
print(f"victim coverage {victim_map.coverage:.2f}, "
      f"trigger fires: {check_global_trigger(victim_map)}")

graph = {4: {1, 2, 5}, 1: {4, 2}, 2: {4, 1, 5}, 5: {4, 2}}
tables = {n: RoutingTable(owner=n) for n in (1, 2, 5)}
for t in tables.values():
    t.rebuild(graph)
print("next hops before:", {n: t.next_hop for n, t in tables.items()})

gk = KeyMaterial.random(rng)
alarm = global_alarm(suite, victim_map, gk, tables, graph, NonceSource(rng),
                     now=13.0)
print(f"alarm accepted by {sorted(alarm.accepted)}")
print("next hops after: ", {n: t.next_hop for n, t in tables.items()})

print("\n== event trace ==")
print(format_events(res.events + alarm.events), end="")
