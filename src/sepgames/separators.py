"""Separating automata for the two atomic objectives.

* Parity: states are the leaves of a universal tree of height ceil(d/2);
  reading an odd priority moves to the first leaf past the current ancestor
  subtree at the priority's level, reading an even priority falls back to the
  leftmost leaf below the ancestor at its level.  The tree is stored as the
  sorted first leaves of each level's nodes, built on the first query; the
  scalar ``delta`` bisects one level per call.  It is monotone in leaf
  order, and the ``pre`` kernel reads each level's node sizes instead of
  searching the levels.

* Mean payoff: a saturating counter over [0, (n-1)*N], started at the top;
  a letter is rejected exactly when it would push the counter below zero.
  Its ``pre`` is a shifted clip of the ranks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .automaton import SafetyAutomaton, _check_alphabet, _walk
from .core import InvalidGameError, MeanPayoff, Parity

__all__ = [
    "UniversalTree",
    "universal_tree",
    "parity_separator",
    "mp_separator",
    "parity_state_bound",
    "separator_stats",
]


def _capacities(n: int) -> list:
    """The capacities that halving reaches from n, n included, in increasing
    order: each step takes m to m // 2 and m - 1 - m // 2, so it adds at
    most two new ones."""
    caps, new = {n}, {n}
    while new:
        new = {c for m in new if m > 0 for c in (m // 2, m - 1 - m // 2)} - caps
        caps |= new
    return sorted(caps)


@lru_cache(maxsize=None)
def _leaf_counts(n: int, h: int) -> tuple:
    """Per height g = 0..h, the leaf count of the tree for each capacity of
    ``_capacities(n)`` and height g, filled bottom-up over the heights by
    the halving recursion: L(m, g) = L(m // 2, g) + L(m, g - 1) +
    L(m - 1 - m // 2, g), 1 at height 0, and 0 for m <= 0."""
    caps = _capacities(n)
    rows = [{m: int(m > 0) for m in caps}]
    for _ in range(h):
        row: dict = {}
        for m in caps:  # increasing, so both halves come first
            row[m] = row[m // 2] + rows[-1][m] + row[m - 1 - m // 2] if m > 0 else 0
        rows.append(row)
    return tuple(rows)


def _leaf_count(n: int, h: int) -> int:
    return _leaf_counts(n, h)[h][n]


@lru_cache(maxsize=None)
def _node_starts(n: int, h: int) -> tuple:
    """First leaves of the nodes of levels 1..h of the tree for capacity n and
    height h, one sorted read-only int64 memoryview per level (bisect reads
    Python ints from it, numpy reads it without a copy).  Memoized for the
    trees asked for only.

    Built from the root down.  The children of a node of capacity m > 0 are
    the nodes one level lower for the capacities K(m) = K(m // 2), m,
    K(m - 1 - m // 2), in order (K(m) = () for m <= 0), and a level's first
    leaves are the running sums of its nodes' leaf counts."""
    caps = _capacities(n)
    kids: dict = {}  # capacity -> K(capacity), as indices into caps
    for i, m in enumerate(caps):  # increasing, so both halves come first
        kids[m] = np.concatenate((kids[m // 2], [i], kids[m - 1 - m // 2])) if m > 0 else np.zeros(0, np.int64)
    sizes = np.array([len(kids[m]) for m in caps])
    offsets = np.cumsum(sizes) - sizes
    flat = np.concatenate([kids[m] for m in caps])
    counts = _leaf_counts(n, h)
    # the capacities of the current level's nodes, as indices into caps: the
    # root's is n, the largest
    level = np.array([len(caps) - 1] if n > 0 else [], dtype=np.int64)
    starts = []
    for g in range(h, 0, -1):
        if g < h and len(level):  # the children of the level above
            size = sizes[level]
            ends = np.cumsum(size)
            level = flat[np.arange(ends[-1]) + np.repeat(offsets[level] - ends + size, size)]
        leaves = np.fromiter((counts[g][m] for m in caps), dtype=np.int64, count=len(caps))[level]
        starts.append(np.cumsum(leaves) - leaves)
    return tuple(memoryview(s).toreadonly() for s in reversed(starts))


@dataclass(frozen=True, eq=False)
class UniversalTree:
    """Ordered tree with all leaves at depth ``height`` into which every
    ordered tree with at most ``capacity`` leaves (all at that depth) embeds,
    preserving order and depth.

    Built by halving: the root merges the children of the tree for half the
    capacity, one fresh subtree of full capacity and reduced height, and the
    children of the tree for the remaining capacity.  Leaves are numbered
    left to right, and a node is known by its first leaf: ``levels[l]`` holds
    the sorted first leaves of the nodes ``l`` levels above the leaves, so a
    leaf's ancestor there is found by bisection.  The leaf count comes from
    the same recursion on integers, filled bottom-up; the levels are built
    on first use, from the root down.
    """

    capacity: int
    height: int

    @property
    def leaf_count(self) -> int:
        return _leaf_count(self.capacity, self.height)

    @cached_property
    def levels(self) -> tuple:
        """Per level, from the leaves (a ``range``) up to the root, the sorted
        first leaves of its nodes."""
        return (range(self.leaf_count),) + _node_starts(self.capacity, self.height)

    def leaf_tuple(self, index: int) -> tuple:
        """Child-index address of a leaf, from the root level down; the
        lexicographic order of addresses is the left-to-right leaf order."""
        self._check(index)
        address = []
        first = 0  # the first leaf of the current ancestor
        for starts in reversed(self.levels[:-1]):
            j = bisect_right(starts, index) - 1
            address.append(j - bisect_left(starts, first))
            first = starts[j]
        return tuple(address)

    def leaf_index(self, address: tuple) -> int:
        """Inverse of :meth:`leaf_tuple`."""
        if not self.leaf_count or len(address) != self.height:
            raise InvalidGameError(f"address {address!r} does not fit this tree")
        first, end = 0, self.leaf_count  # the current node's leaves
        for starts, ci in zip(reversed(self.levels[:-1]), address):
            lo, hi = bisect_left(starts, first), bisect_left(starts, end)
            if not 0 <= ci < hi - lo:
                raise InvalidGameError(f"address {address!r} does not fit this tree")
            first, end = starts[lo + ci], starts[lo + ci + 1] if lo + ci + 1 < hi else end
        return first

    def _check(self, index: int) -> None:
        if not 0 <= index < self.leaf_count:
            raise InvalidGameError(f"leaf index {index} out of range")

    def ancestor_span(self, index: int, level: int) -> tuple:
        """(first leaf index, leaf count) of the ancestor of leaf ``index``
        sitting ``level`` levels above the leaves (0 = the leaf itself)."""
        self._check(index)
        if not 0 <= level <= self.height:
            raise InvalidGameError(f"level {level} out of range")
        starts = self.levels[level]
        j = bisect_right(starts, index)
        end = starts[j] if j < len(starts) else self.leaf_count
        return starts[j - 1], end - starts[j - 1]


def universal_tree(n: int, h: int) -> UniversalTree:
    if n < 0 or h < 0:
        raise InvalidGameError("universal tree parameters must be >= 0")
    return UniversalTree(capacity=n, height=h)


def parity_separator(n: int, max_priority: int) -> SafetyAutomaton:
    """Separating automaton for parity over priorities [0, max_priority],
    sound for all graphs and separating for graphs with at most ``n``
    vertices.  States are the leaves of ``universal_tree(n, ceil(d/2))`` in
    left-to-right order; the initial state is the leftmost leaf.

    Reading priority p compares leaves by their address truncated at p's
    level: odd p moves to the smallest strictly greater leaf (undefined past
    the last one), even p to the smallest greater-or-equal one.  Reading 0 is
    the identity and reading a top even priority resets to the leftmost leaf.

    ``delta`` is monotone in leaf order: for every p, a leaf left of another
    moves to a leaf no further right, and only a suffix of the leaves has p
    undefined.  So parity games are solved by value iteration over this
    order, from the ``pre`` kernel below, without filling a transition
    table: the tests check the kernel against the filled table's ``pre``.

    Priorities p and p + 1 (p even) read the same level, p // 2: the even
    one the first leaf of q's ancestor there, the odd one the first leaf of
    the next node on that level.  ``delta`` bisects the level's node starts
    for one state.  So the last leaf that even p moves to t or below is the
    last leaf of t's node, and for odd p the leaf before the node's first;
    the ``pre`` kernel repeats those per node over its leaves.  Neither
    builds anything at construction, so the state count alone stays cheap
    at any size.
    """
    if n < 1 or max_priority < 0:
        raise InvalidGameError("parity separator needs n >= 1 and max_priority >= 0")
    height = (max_priority + 1) // 2
    tree = universal_tree(n, height)
    states = tree.leaf_count

    def delta(q: int, p: int) -> Optional[int]:
        if not 0 <= q < states or not 0 <= p >> 1 <= height:
            raise InvalidGameError(f"no transition from state {q} on priority {p}")
        starts = tree.levels[p >> 1]
        j = bisect_right(starts, q)
        if p & 1:
            return starts[j] if j < len(starts) else None
        return starts[j - 1]

    def state_label(q: int) -> str:
        return "(" + ",".join(str(x) for x in tree.leaf_tuple(q)) + ")"

    def pre_kernel(colors: Sequence[int]) -> np.ndarray:
        colors = list(colors)
        pre = np.empty((len(colors), states + 1), dtype=np.int32)
        pre[:, 0] = -1
        for i, p in enumerate(colors):
            if p <= 1:  # t itself, or the leaf before it
                pre[i, 1:] = np.arange(-p, states - p, dtype=np.int32)
                continue
            starts = np.asarray(tree.levels[p >> 1])
            ends = np.append(starts[1:], states)
            last = (starts if p & 1 else ends) - 1
            pre[i, 1:] = np.repeat(last.astype(np.int32), ends - starts)
        return pre.ravel()

    return SafetyAutomaton(
        state_count=states,
        initial=0,
        alphabet=Parity(max_priority),
        delta=delta,
        state_label=state_label,
        pre_kernel=pre_kernel,
    )


def mp_separator(n: int, weight_bound: int) -> SafetyAutomaton:
    """Separating automaton for mean payoff with weights in ``[-N, N]``:
    a counter over [0, (n-1)*N] started at the top, adding each letter,
    saturating at the top and rejecting below zero.

    Graphs without negative cycles keep every infix sum above -(n-1)*N, so
    starting from the top the counter never falls below zero on their paths.
    A higher counter is never worse for Eve: states rank ``top - q``.
    """
    if n < 1 or weight_bound < 0:
        raise InvalidGameError("mp separator needs n >= 1 and weight_bound >= 0")
    top = (n - 1) * weight_bound

    def delta(q: int, w: int) -> Optional[int]:
        s = q + w
        if s < 0:
            return None
        return s if s < top else top

    return SafetyAutomaton(
        state_count=top + 1,
        initial=top,
        alphabet=MeanPayoff(weight_bound),
        delta=delta,
        rank=np.arange(top, -1, -1),
        pre_kernel=lambda colors: _counter_pre(top, colors),
    )


def _counter_pre(top: int, weights: Sequence[int]) -> np.ndarray:
    """``pre`` of a counter saturating at ``top``, in its rank order (rank
    ``top - q``): the counter at rank r reaches rank t or below on w iff
    r <= t + w, so ``pre(w, t) = min(t + w, top)``, and -1 below zero."""
    weights = np.asarray(weights, dtype=np.int64).reshape(-1, 1)
    pre = np.empty((len(weights), top + 2), dtype=np.int32)
    pre[:, 0] = -1
    pre[:, 1:] = np.clip(np.arange(top + 1) + weights, -1, top)
    return pre.ravel()


def parity_state_bound(n: int, max_priority: int) -> int:
    """Closed-form bound on the parity separator's state count,
    ``n * C(ceil(log2 n) + d/2 - 1, ceil(log2 n))`` for even d >= 2, and 1
    for d = 0."""
    if max_priority % 2:
        raise InvalidGameError("the closed-form bound is stated for even max_priority")
    if max_priority == 0:
        return 1  # a tree of height 0 is a single leaf
    logn = math.ceil(math.log2(n)) if n > 1 else 0
    return n * math.comb(logn + max_priority // 2 - 1, logn)


def separator_stats(aut: SafetyAutomaton, bound: Optional[int] = None, game=None) -> dict:
    """State count, alphabet size, (optionally) the matching closed-form size
    bound, and (given a game) the size of the chained product the game
    reaches from all its vertices."""
    stats = {
        "states": aut.state_count,
        "alphabet_size": aut.alphabet.alphabet_size,
    }
    if bound is not None:
        stats["bound"] = bound
    if game is not None:
        _check_alphabet(game, aut)
        # the roots, then every target met; the sink is the code None
        codes = {v * aut.state_count + aut.initial for v in range(game.vertex_count)}
        edges = 0
        for _, _, t in _walk(game.graph, aut, range(game.vertex_count)):
            codes.add(t)
            edges += 1
        stats["product_states"] = len(codes)
        stats["product_edges"] = edges
    return stats
