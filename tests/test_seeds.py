"""One seed tree: every random stream of a run is seeded by `protocol.sub_seed`
from a named path under the run seed, except `init_world`'s placement and
mobility stream."""

import ast
import random
from pathlib import Path

import numpy as np

import manetsec
from manetsec import adversary, cli, protocol, sim

SRC = Path(manetsec.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def calls_named(tree, name):
    """(enclosing function, or "<module>", and call) for every call of
    `<x>.name(...)` or `name(...)` anywhere in the module."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "attr", None), getattr(child.func, "id", None)):
                yield where, child
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else where
            yield from visit(child, inner)
    yield from visit(tree, "<module>")


def test_no_stream_is_seeded_outside_the_tree():
    """One `SeedSequence(`, in `init_world`, and no `random.Random(` or
    `default_rng(` whose seed XORs a constant in or is a bare seed."""
    sequences, streams = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        sequences += [(path.name, fn) for fn, _ in calls_named(tree, "SeedSequence")]
        streams += [(path.name, kind, call) for kind in ("Random", "default_rng")
                    for _, call in calls_named(tree, kind)]
    assert sequences == [("sim.py", "init_world")]
    assert {kind for _, kind, _ in streams} == {"Random", "default_rng"}
    for name, _, call in streams:
        for arg in [*call.args, *(k.value for k in call.keywords)]:
            assert not isinstance(arg, (ast.Name, ast.Attribute)), (name, call.lineno)
            assert not any(isinstance(op, ast.BitXor) for op in ast.walk(arg)), \
                (name, call.lineno)


def test_distinct_paths_give_distinct_seeds(monkeypatch, tmp_path):
    """Every `sub_seed` call of `simulate` on scenario_basic and the dropper
    sweep, and of a 2-cycle security suite: distinct (parent, label) pairs
    give distinct seeds, and every stream is seeded by one of them."""
    derived: dict[tuple[int, str], int] = {}
    real = protocol.sub_seed

    def recorded(seed, label):
        derived[seed, label] = value = real(seed, label)
        return value

    for module in (protocol, sim, adversary, cli):
        monkeypatch.setattr(module, "sub_seed", recorded)

    streams = []

    class Stream(random.Random):
        def __init__(self, x=None):
            streams.append(x)
            super().__init__(x)

    default_rng = np.random.default_rng

    def numpy_stream(seed=None):
        streams.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(random, "Random", Stream)
    monkeypatch.setattr(np.random, "default_rng", numpy_stream)

    for cfg in ("scenario_basic", "scenario_dropper_sweep"):
        assert cli.main(["simulate", "--config", str(DEMOS / f"{cfg}.cfg"),
                         "--out", str(tmp_path / cfg)]) == 0
    assert adversary.run_security_suite(77, cycles=2, replay_trials=5).all_passed()

    labels = {label.split(":")[0] for _, label in derived}
    assert {"session", "node", "features", "split", "som", "response/maps",
            "response/alarm", "suite/cycles", "suite/replay"} <= labels
    assert len(set(derived.values())) == len(derived)

    seeds = set(derived.values())
    placements = [s for s in streams if isinstance(s, np.random.SeedSequence)]
    assert len(placements) == 5  # init_world's, once per sweep cell
    for placement in placements:
        assert placement.entropy[0] in seeds and placement.entropy[1] == 0xC0FFEE
    named = {s for s in streams if not isinstance(s, np.random.SeedSequence)}
    assert named and named <= seeds
    assert not named & {42, 77}  # the run seeds
