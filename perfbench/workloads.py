"""The benchmark's workloads: their inputs, their ops and the expected
output of every op, computed before any op is timed.

Every op goes through a real entry point in process: ``frontend.cli`` on a
game file, or ``build_separator`` plus ``accepts_all_paths`` on a graph.
Both are looked up on their modules at call time, so the tracer's wrappers
apply to traced ops.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import random
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gen
from sepgames import automaton, core, frontend, oracle
from sepgames.core import MeanPayoff, MeanPayoffDisjunction, Parity, ParityOrMeanPayoff

HERE = Path(__file__).resolve().parent

OBJECTIVES = {
    "parity": Parity,
    "mp": MeanPayoff,
    "parity-mp": ParityOrMeanPayoff,
    "disj-mp": MeanPayoffDisjunction,
}

# Each large workload solves one fixed game, the first of its shape's
# stream, again and again.  Solve cost varies by up to 8x between random
# games of one shape (parity-region's split into a 1.7 s and a 3 s group),
# so fresh games per seed would measure the draw, and a median over ops of
# several games would jump between their costs.
LARGE = {
    "disjmp-root": dict(kw="disj-mp", params=(2, 2), n=300, degree=4, region=False),
    "parity-region": dict(kw="parity", params=(8,), n=300, degree=3, region=True),
    "paritymp-root": dict(kw="parity-mp", params=(4, 2), n=40, degree=4, region=False),
}
DESK_GAMES = 800


@dataclass
class Op:
    call: Callable[[], object]
    expected: Optional[object]  # None: no trusted answer, so the op fails


@dataclass
class Inputs:
    ops: list
    digest: str
    oracle_s: float


class _Clock:
    """Accumulates the time spent on reference answers."""

    def __init__(self) -> None:
        self.total = 0.0

    def run(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.total += time.perf_counter() - t0


def solve_call(path: Path, region: bool) -> Callable[[], tuple]:
    argv = ["solve", "--input", str(path), "--from", "0"] + (["--region"] if region else [])

    def call():
        out = io.StringIO()
        with redirect_stdout(out):
            code = frontend.cli(argv)
        return code, out.getvalue()

    return call


def check_call(objective, n: int, edges: list) -> Callable[[], bool]:
    def call():
        aut = frontend.build_separator(objective, n)
        return automaton.accepts_all_paths(aut, core.Graph(n, edges))

    return call


def region_output(region) -> tuple:
    """What ``solve --from 0 --region`` prints for Eve's winning region."""
    verdict = "WIN" if 0 in region else "LOSE"
    return 0, f"{verdict}\nregion: " + " ".join(str(v) for v in sorted(region)) + "\n"


def load_refs():
    """``tests/refs.py`` of the checkout, read-only: the Zielonka reference."""
    path = HERE.parent / "tests" / "refs.py"
    spec = importlib.util.spec_from_file_location("sepgames_bench_refs", path)
    refs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refs)
    return refs


def large_instance_text(name: str) -> str:
    shape = LARGE[name]
    rng = random.Random(f"{name}:0")
    degree = (shape["degree"], shape["degree"])
    return gen.game_text(rng, shape["n"], degree, shape["kw"], shape["params"])


def large(name: str, workdir: Path) -> Inputs:
    clock = _Clock()
    region = LARGE[name]["region"]
    text = large_instance_text(name)
    path = workdir / f"{name}.game"
    path.write_text(text, encoding="utf-8")
    if region:
        refs = load_refs()
        expected = clock.run(lambda: region_output(refs.zielonka_region(frontend.parse_game(text))))
    else:
        pin = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))[name]
        expected = clock.run(_pinned_output, pin, text)
    return Inputs([Op(solve_call(path, region), expected)], hashlib.sha256(text.encode()).hexdigest(), clock.total)


def _pinned_output(pin: dict, text: str):
    if pin["sha256"] != hashlib.sha256(text.encode()).hexdigest():
        print(f"warning: input {pin['sha256'][:12]} changed; its verdict is unknown", file=sys.stderr)
        return None
    return 0, pin["verdict"] + "\n"


# parameter grid of each family in desk-mix, as in the acceptance suite
# (weight bounds from 1, so that no game is trivially weightless)
DESK_PARAMS = {
    "parity": [(d,) for d in range(1, 5)],
    "mp": [(w,) for w in range(1, 4)],
    "parity-mp": [(d, w) for d in range(1, 5) for w in range(1, 4)],
    "disj-mp": [(d, w) for d in range(1, 4) for w in range(1, 3)],
}
DESK_SIZES = range(4, 11)


def _satisfying_edges(rng: random.Random, n: int, kw: str, params: tuple, objective) -> list:
    """Biased draws until one satisfies the objective (so the check explores
    the whole product); the last draw is kept if none does."""
    for _ in range(200):
        edges = gen.edges(rng, n, (1, 2), kw, params, bias=True)
        if oracle.satisfies(core.Graph(n, edges), objective):
            break
    return edges


def desk_mix(seed: int, workdir: Path) -> Inputs:
    """One op per game: its ``solve --region`` and a separation check of the
    game's objective separator on a graph of the same size.  Alone, the two
    calls differ twentyfold in cost, so a median over single calls would sit
    in the gap between them and jump with the mix."""
    clock = _Clock()
    rng = random.Random(seed)
    # sizes and parameters come from a fixed stream, so that the mix of
    # costs is the same for every seed; the seed draws the graphs
    mix = random.Random("desk-mix")
    digest = hashlib.sha256()
    ops = []
    for i in range(DESK_GAMES):
        kw = list(OBJECTIVES)[i % len(OBJECTIVES)]
        params = mix.choice(DESK_PARAMS[kw])
        n = mix.choice(DESK_SIZES)
        objective = OBJECTIVES[kw](*params)
        text = gen.game_text(rng, n, (1, 3), kw, params)
        path = workdir / f"desk-{i}.game"
        path.write_text(text, encoding="utf-8")
        game = frontend.parse_game(text)
        solved = clock.run(lambda: region_output(oracle.eve_winning_region_bruteforce(game)))
        # half of each family: a graph satisfying the objective (full
        # exploration); the other half: an unfiltered draw, which mostly
        # violates it (early reject)
        if i // len(OBJECTIVES) % 2:
            edges = gen.edges(rng, n, (1, 2), kw, params)
        else:
            edges = clock.run(_satisfying_edges, rng, n, kw, params, objective)
        checked = clock.run(oracle.satisfies, core.Graph(n, edges), objective)
        ops.append(Op(pair_call(solve_call(path, True), check_call(objective, n, edges)), (solved, checked)))
        digest.update(text.encode())
        digest.update(repr(edges).encode())
    return Inputs(ops, digest.hexdigest(), clock.total)


def pair_call(solve: Callable, check: Callable) -> Callable[[], tuple]:
    def call():
        return solve(), check()

    return call


def build(name: str, seed: int, workdir: Path) -> Inputs:
    if name == "desk-mix":
        return desk_mix(seed, workdir)
    return large(name, workdir)
