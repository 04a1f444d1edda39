"""Safety game solving via Adam's attractor.

The attractor is computed level-synchronously on numpy CSR predecessor
arrays: each round absorbs, in one vectorized step, every Adam vertex with an
edge into the attracted set and every Eve vertex whose remaining out-degree
counter drops to zero.  Each edge is inspected exactly once overall; the
predecessor CSR and each vectorized level are grouped by a sort, so the
whole computation is O(n + m log m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    EVE,
    Game,
    InvalidGameError,
    PositionalStrategy,
    Safety,
)

__all__ = ["WinningRegion", "adam_attractor", "solve_safety"]


@dataclass(frozen=True)
class WinningRegion:
    """Vertices from which Eve wins, with a positional witness on that set.

    The witness picks, for every Eve-owned non-sink vertex of ``eve_wins``,
    the first edge (in declaration order) whose target stays in ``eve_wins``.
    """

    eve_wins: frozenset
    witness: Optional[PositionalStrategy]


_SMALL_FRONTIER = 64


def _absorb(counter: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """One vectorized level of an attractor whose ``counter`` is the number
    of edges a vertex still needs into the set (<= 0: in the set).

    ``preds`` lists the sources of the level's edges into the set, with
    repeats.  Each distinct one outside the set is charged once with its
    number of occurrences; returns those whose counter drops to <= 0.  The
    level is sorted to group the repeats, which also walks ``counter`` in
    order.
    """
    preds = preds[counter[preds] > 0]
    if preds.size == 0:
        return preds
    preds.sort()
    first = np.empty(preds.size, dtype=bool)
    first[0] = True
    np.not_equal(preds[1:], preds[:-1], out=first[1:])
    at = np.flatnonzero(first)
    uniq = preds[at]
    counter[uniq] -= np.append(at[1:], preds.size) - at
    return uniq[counter[uniq] <= 0]


def _attract(vertex_count: int, srcs, dsts, eve_mask, seed) -> np.ndarray:
    """Least superset of ``seed`` closed under Adam steps and forced Eve steps.

    ``seed`` must already contain every vertex that joins unconditionally
    (for game-level calls: Eve-owned sinks).  Returns a bool membership array.

    Every absorbed vertex has its predecessor list scanned exactly once:
    small frontiers are drained with a plain worklist, large ones with one
    vectorized sweep per level (``_absorb``; same fixpoint either way).

    Edge arrays keep the caller's integer dtype.  An Adam vertex is treated
    as an Eve vertex that needs a single edge into the set: its counter
    starts at 1.  A vertex without edges joins only as a seed, and the
    seed's counters start at 0.
    """
    seed = np.asarray(seed)
    if seed.size == 0:
        return np.zeros(vertex_count, dtype=bool)

    srcs = np.asarray(srcs)
    dsts = np.asarray(dsts)
    counter = np.bincount(srcs, minlength=vertex_count)
    counter[~np.asarray(eve_mask, dtype=bool)] = 1
    counter[counter == 0] = 1
    counter[seed] = 0

    # CSR over predecessors: preds of v are pred_src[ptr[v]:ptr[v+1]].  One
    # value sort of (dst << 32 | src) keys groups them; the order inside a
    # group does not matter to the fixpoint.
    keys = dsts.astype(np.int64)
    keys <<= 32
    keys |= srcs
    keys.sort()
    keys &= 0xFFFFFFFF
    pred_src = keys.astype(srcs.dtype)
    del keys
    ptr = np.zeros(vertex_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(dsts, minlength=vertex_count), out=ptr[1:])

    pending = np.flatnonzero(counter == 0)
    while len(pending):
        if len(pending) <= _SMALL_FRONTIER:
            if not isinstance(pending, list):
                pending = pending.tolist()
            v = pending.pop()
            for u in pred_src[ptr[v] : ptr[v + 1]].tolist():
                if counter[u] <= 0:
                    continue
                counter[u] -= 1
                if counter[u] > 0:
                    continue
                pending.append(u)
            continue
        frontier = np.asarray(pending)
        starts = ptr[frontier]
        lens = ptr[frontier + 1] - starts
        pending = _absorb(counter, pred_src[_slices(starts, lens, int(lens.sum()))])
    return counter <= 0


def _slices(starts: np.ndarray, lens: np.ndarray, total: int) -> np.ndarray:
    """The index ranges ``[starts[i], starts[i] + lens[i])``, concatenated;
    ``total`` is the sum of ``lens``."""
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(total)


def _attracted(game: Game, target: Sequence[int]) -> np.ndarray:
    """Membership mask of Adam's attractor to ``target`` and the Eve-owned
    sinks, on a game with at least one vertex."""
    g = game.graph
    n = g.vertex_count
    eve_mask = np.fromiter((o is EVE for o in game.owner), dtype=bool, count=n)
    eve_sinks = np.flatnonzero(eve_mask & (np.bincount(g._src_array, minlength=n) == 0))
    seed = np.union1d(np.asarray(target, dtype=np.int64), eve_sinks)
    # called through the module attribute, which a tracer may replace
    return _attract(n, g._src_array, g._dst_array, eve_mask, seed)


def _require_safety(game: Game) -> None:
    if not isinstance(game.objective, Safety):
        raise InvalidGameError(f"expected a safety game, got objective {game.objective!r}")


def adam_attractor(game: Game, target: Iterable[int]) -> frozenset:
    """Least set containing ``target`` such that any Adam vertex with an edge
    into it, and any Eve vertex with all its edges into it, also belongs.

    Eve vertices with no outgoing edges join vacuously (all zero of their
    edges lead into the set), so Eve-owned sinks are always absorbed.
    """
    _require_safety(game)
    n = game.vertex_count
    target = list(target)
    for v in target:
        if not 0 <= v < n:
            raise InvalidGameError(f"target vertex {v} out of range")
    if n == 0:
        return frozenset()
    x = _attracted(game, target)
    return frozenset(int(v) for v in np.flatnonzero(x))


def solve_safety(game: Game) -> WinningRegion:
    """Winning region for Eve: the complement of Adam's attractor to the
    Eve-controlled sinks.  Adam-controlled sinks are winning for Eve."""
    _require_safety(game)
    n = game.vertex_count
    if n == 0:
        return WinningRegion(frozenset(), PositionalStrategy({}))
    win = ~_attracted(game, ())

    choices = {}
    srcs, dsts = game.graph._src_array, game.graph._dst_array
    for i in np.flatnonzero(win[srcs] & win[dsts]):
        u = int(srcs[i])
        if u not in choices and game.owner[u] is EVE:
            choices[u] = game.graph.edges[i]
    eve_wins = frozenset(int(v) for v in np.flatnonzero(win))
    return WinningRegion(eve_wins, PositionalStrategy(choices))
