"""Walk through one life of a key-agreement group.

Builds the 18-party topology (17 tree members plus a checker), runs key
initiation and session agreement, then exercises a join, a leave and both
periodic rekeys, checking the XOR share oracle at every step.
"""

from manetsec.crypto import CipherSuite, xor_combine
from manetsec.keytree import dump_tree, key_path
from manetsec.protocol import GroupSession

EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 6), (2, 7), (3, 8), (4, 9),
    (6, 10), (6, 11), (7, 12), (8, 13),
    (10, 14), (10, 15), (11, 16), (12, 17), (13, 18),
]

graph = {}
for a, b in EDGES:
    graph.setdefault(a, set()).add(b)
    graph.setdefault(b, set()).add(a)

session = GroupSession(graph, root=1, members=set(range(1, 19)),
                       suite=CipherSuite(), seed=7, checker=5)

print("== tree ==")
print(dump_tree(session.tree))
print(f"height: {session.tree.height}, members: {len(session.tree.members())}, "
      f"checker: {session.checker}")

keys = session.establish()
print("\n== establishment ==")
print(f"epoch {keys.epoch}")
print(f"GK            = {keys.gk.hex()}")
print(f"XOR oracle    = {session.gk_oracle().hex()}")
print(f"local keys for level-1 members: {sorted(session.local_keys)}")

agree = all(n.state.session_key == keys.gk for n in session.nodes.values())
print(f"all 18 parties hold the same GK: {agree}")

print("\n== member 19 joins next to member 6 ==")
keys = session.member_join(19, {6})
print(f"epoch {keys.epoch}, key path of the joiner: {key_path(session.tree, 19)}")
print(f"GK            = {keys.gk.hex()}")
print(f"XOR oracle    = {session.gk_oracle().hex()}")

print("\n== member 19 leaves again ==")
keys = session.member_leave(19)
print(f"epoch {keys.epoch}")
print(f"GK            = {keys.gk.hex()}")
print(f"XOR oracle    = {session.gk_oracle().hex()}")

print("\n== periodic global rekey ==")
old = keys.gk
keys = session.periodic_global_rekey()
print(f"epoch {keys.epoch}")
print(f"GK_new xor GK_old = {(keys.gk ^ old).hex()}  (the checker's fresh share)")

print("\n== periodic local rekey with member 2 ==")
old_lk = session.local_keys[2]
lk_new = session.periodic_local_rekey(2)
print(f"LK_new xor LK_old = {(lk_new ^ old_lk).hex()}  (member 2's fresh share)")
print(f"root and member 2 agree: "
      f"{session.local_keys[2] == session.nodes[2].state.local_keys[2]}")

print(f"\ntranscript: {len(session.transport.messages)} messages, "
      f"{len(session.transport.transcript)} bytes on the wire")
