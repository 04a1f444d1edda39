"""Safety game solving via Adam's attractor.

The attractor is computed level-synchronously on numpy CSR predecessor
arrays: each round absorbs, in one vectorized step, every Adam vertex with an
edge into the attracted set and every Eve vertex whose remaining out-degree
counter drops to zero.  Each edge is inspected exactly once overall; the
predecessor CSR and each vectorized level are grouped by a sort, so the
whole computation is O(n + m log m).

The one loop, ``_drain``, runs on the integer-coded product of a game with
an automaton whose transitions it reads inverted, without storing the
product's edges.  It serves both the explicit games solved here, as their
product with a one-state automaton, and the product route of
``automaton._solve_flat``.
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

    Edge arrays keep the caller's integer dtype.  An Adam vertex is treated
    as an Eve vertex that needs a single edge into the set: its counter
    starts at 1.  A vertex without edges joins only as a seed, and the
    seed's counters start at 0.  The game is drained as its product with a
    one-state automaton: stride 1, every edge in group 0, whose preimage is
    that state.
    """
    seed = np.asarray(seed)
    if seed.size == 0:
        return np.zeros(vertex_count, dtype=bool)

    srcs = np.asarray(srcs)
    counter = np.bincount(srcs, minlength=vertex_count)
    counter[~np.asarray(eve_mask, dtype=bool)] = 1
    counter[counter == 0] = 1
    counter[seed] = 0
    ptr, states = np.array([0, 1]), np.zeros(1, dtype=np.int32)
    _drain(counter, 1, srcs, np.asarray(dsts), np.zeros_like(srcs), ptr, states)
    return counter <= 0


def _drain(counter, stride: int, base, dst, group, state_ptr, state_of) -> None:
    """Adam's attractor, in place, on a product whose codes are ``v * stride
    + t`` for game vertex v and automaton state t.

    ``counter[c]`` is the number of edges code c still needs into the
    attractor, <= 0 once it is in; the codes at 0 are the seed.  The
    product's edges are never stored: the j-th game edge, from v into
    ``dst[j]`` = w, comes as its source's code base ``base[j]`` = v * stride
    and its color's preimage group ``group[j]``, and the predecessors of
    (w, t) along it are ``base[j] + q`` for the states q in
    ``state_of[state_ptr[s] : state_ptr[s + 1]]``, s = ``group[j] + t``.

    The edges are grouped by target once.  The seed level is swept at once;
    then small frontiers are drained with a plain worklist, large ones with
    one vectorized sweep per level (``_absorb``; same fixpoint either way).
    Every code that joins has its predecessors generated exactly once.
    """
    n = counter.size // stride
    order = np.argsort(dst)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=ptr[1:])
    base = base[order]
    group = group[order]
    del order

    def preds(frontier: np.ndarray) -> np.ndarray:
        w = frontier // stride
        starts = ptr[w]
        lens = ptr[w + 1] - starts
        e = _slices(starts, lens, int(lens.sum()))
        slot = group[e] + np.repeat(frontier - w * stride, lens)
        starts = state_ptr[slot]
        lens = state_ptr[slot + 1] - starts
        return np.repeat(base[e], lens) + state_of[_slices(starts, lens, int(lens.sum()))]

    pending = _absorb(counter, preds(np.flatnonzero(counter == 0)))
    # indexed as Python ints, without a copy
    cnt, rp, bs, gr, sp, so = map(memoryview, (counter, ptr, base, group, state_ptr, state_of))
    while len(pending):
        if len(pending) <= _SMALL_FRONTIER:
            if not isinstance(pending, list):
                pending = pending.tolist()
            w, t = divmod(pending.pop(), stride)
            for j in range(rp[w], rp[w + 1]):
                b, s = bs[j], gr[j] + t
                for k in range(sp[s], sp[s + 1]):
                    u = b + so[k]
                    left = cnt[u]
                    if left > 0:
                        cnt[u] = left - 1
                        if left == 1:
                            pending.append(u)
            continue
        pending = _absorb(counter, preds(np.asarray(pending)))


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
