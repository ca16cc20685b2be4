"""Span tracing of manetsec's public entry points, from outside the program.

`Tracer.install()` replaces each function in `TARGETS` with a wrapper that
records one span per call: name, start, end, parent span and an integer tag
(message kind, drop counter, decrypt outcome) plus an amount (frame bytes,
samples). Module-level functions are replaced wherever a manetsec module holds
a reference to them, so `protocol.build_tree`, `sim.connectivity` and
`esom.bmu_indices` are traced no matter which module calls them; methods are
replaced on their class. `uninstall()` restores every original. Spans stay in
memory until `layer_metrics()` turns them into per-layer counts and self
times, self time being a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

from manetsec.wire import MessageKind

EPOCHS = ("establish", "member_join", "member_leave", "periodic_global_rekey",
          "periodic_local_rekey")
DROP_COUNTERS = ("integrity_failures", "nonce_mismatch", "unexpected", "join_requests")
KINDS = tuple(MessageKind)


def _failed(args, result, failed):
    return int(failed), 0


def _msg_kind(args, result, failed):
    return int(args[1].kind), 0


def _frame(args, result, failed):
    return int(args[0].kind), 0 if failed else len(result)


def _counter(args, result, failed):
    return DROP_COUNTERS.index(args[1]), 0


def _samples(index):
    def tag(args, result, failed):
        return 0, len(args[index])
    return tag


# (module, function or Class.method, tagger); the layer is the module name
TARGETS = [
    ("crypto", "CipherSuite.decrypt", _failed),
    ("crypto", "CipherSuite.encrypt", None),
    ("crypto", "CipherSuite.derive_key", None),
    ("crypto", "CipherSuite.digest", None),
    ("wire", "ProtocolMessage.to_bytes", _frame),
    ("wire", "ProtocolMessage.from_bytes", None),
    ("keytree", "build_tree", None),
    ("keytree", "attach_member", None),
    ("keytree", "detach_member", None),
    ("keytree", "key_path", None),
    *(("protocol", f"GroupSession.{e}", None) for e in EPOCHS),
    ("protocol", "ProtocolNode.step", _msg_kind),
    ("protocol", "ProtocolNode._drop", _counter),
    ("protocol", "NodeState.fingerprint", None),
    ("adversary", "candidate_group_keys", None),
    ("adversary", "capture_knowledge", None),
    ("adversary", "scan_for_secrets", None),
    ("adversary", "replay_once", None),
    ("sim", "connectivity", None),
    ("sim", "shortest_route", None),
    ("sim", "generate_features", None),
    ("sim", "mobility_step", None),
    ("sim", "RadioTransport.targets", None),
    ("sim", "RadioTransport.peek_targets", None),
    ("esom", "train_som", _samples(0)),
    ("esom", "compute_umatrix", None),
    ("esom", "label_regions", _samples(2)),
    ("esom", "classify_batch", _samples(2)),
    ("esom", "bmu_indices", _samples(1)),
    ("response", "distribute_local_maps", None),
    ("response", "global_alarm", None),
    ("response", "RoutingTable.rebuild", None),
    ("cli", "cmd_simulate", None),
]
NAMES = [f"{mod}.{attr}" for mod, attr, _ in TARGETS]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    units: dict[str, str] = {}
    for name, (_, _, tagger) in zip(NAMES, TARGETS):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if tagger is _failed:
            units[f"{name}.fail_ratio"] = "ratio"
            for caller in ("adversary", "protocol"):
                units[f"{name}.{caller}.calls"] = "count"
                units[f"{name}.{caller}.self_s"] = "s"
                units[f"{name}.{caller}.fail_ratio"] = "ratio"
        elif tagger is _frame:
            units[f"{name}.bytes"] = "bytes"
            units.update((f"{name}.{k.name}.bytes", "bytes") for k in KINDS)
        elif tagger is _msg_kind:
            units.update((f"{name}.{k.name}.calls", "count") for k in KINDS)
        elif tagger is _counter:
            del units[f"{name}.self_s"]
            units.update((f"{name}.{c}.calls", "count") for c in DROP_COUNTERS)
        elif tagger is not None:
            units[f"{name}.samples"] = "count"
    for e in EPOCHS:
        units[f"protocol.GroupSession.{e}.frames_per_epoch"] = "frames"
    units.update({"trace.spans": "count", "trace.untraced_wall_s": "s",
                  "trace.traced_wall_s": "s", "trace.overhead_ratio": "ratio"})
    return units


class Tracer:
    def __init__(self):
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.tag = array("q")
        self.amount = array("q")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, tagger):
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        tags, amounts, stack, now = self.tag, self.amount, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            tags.append(-1)
            amounts.append(0)
            stack.append(idx)
            result, failed = None, True
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                ends[idx] = now()
                stack.pop()
                if tagger is not None:
                    tags[idx], amounts[idx] = tagger(args, result, failed)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "manetsec" or n.startswith("manetsec."))]
        for name_id, (mod_name, attr, tagger) in enumerate(TARGETS):
            module = importlib.import_module(f"manetsec.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name_id, raw.__func__, tagger))
                else:
                    wrapped = self._wrap(name_id, raw, tagger)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(name_id, fn, tagger)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times over every recorded span."""
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.uint16, count=n).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        tag = np.frombuffer(self.tag, dtype=np.int64, count=n)
        amount = np.frombuffer(self.amount, dtype=np.int64, count=n)
        covered = np.bincount(parent + 1, weights=dur, minlength=n + 1)[1:]
        self_t = dur - covered

        # nearest enclosing span of a caller layer, and of an epoch; parents
        # always precede their children, so one forward pass resolves both
        caller_of = {NAMES.index("protocol.ProtocolNode.step"): "protocol"}
        caller_of.update({i: "adversary" for i, (mod, _, _) in enumerate(TARGETS)
                          if mod == "adversary"})
        epoch_ids = {NAMES.index(f"protocol.GroupSession.{e}"): e for e in EPOCHS}
        caller = [None] * n
        epoch = [None] * n
        for i in range(n):
            nid, p = int(names[i]), int(parent[i])
            caller[i] = caller_of.get(nid, caller[p] if p >= 0 else None)
            epoch[i] = epoch_ids.get(nid, epoch[p] if p >= 0 else None)

        out = {k: 0.0 for k in metric_units()}
        for name_id, (name, (_, _, tagger)) in enumerate(zip(NAMES, TARGETS)):
            sel = names == name_id
            calls = int(sel.sum())
            out[f"{name}.calls"] = calls
            if tagger is not _counter:
                out[f"{name}.self_s"] = float(self_t[sel].sum())
            if tagger is _failed:
                out[f"{name}.fail_ratio"] = float(tag[sel].sum()) / calls if calls else 0.0
                for who in ("adversary", "protocol"):
                    mine = sel & np.array([c == who for c in caller], dtype=bool)
                    k = int(mine.sum())
                    out[f"{name}.{who}.calls"] = k
                    out[f"{name}.{who}.self_s"] = float(self_t[mine].sum())
                    out[f"{name}.{who}.fail_ratio"] = float(tag[mine].sum()) / k if k else 0.0
            elif tagger is _frame:
                out[f"{name}.bytes"] = int(amount[sel].sum())
                for kind in KINDS:
                    out[f"{name}.{kind.name}.bytes"] = int(amount[sel & (tag == kind)].sum())
                frame_epochs = [epoch[i] for i in np.flatnonzero(sel)]
            elif tagger is _msg_kind:
                for kind in KINDS:
                    out[f"{name}.{kind.name}.calls"] = int((sel & (tag == kind)).sum())
            elif tagger is _counter:
                for i, c in enumerate(DROP_COUNTERS):
                    out[f"{name}.{c}.calls"] = int((sel & (tag == i)).sum())
            elif tagger is not None:
                out[f"{name}.samples"] = int(amount[sel].sum())
        for e in EPOCHS:
            runs = out[f"protocol.GroupSession.{e}.calls"]
            out[f"protocol.GroupSession.{e}.frames_per_epoch"] = (
                frame_epochs.count(e) / runs if runs else 0.0)
        out["trace.spans"] = n
        return out
