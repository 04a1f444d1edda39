"""Separating automata for the two atomic objectives.

* Parity: states are the leaves of a universal tree of height ceil(d/2);
  reading an odd priority moves to the first leaf past the current ancestor
  subtree at the priority's level, reading an even priority falls back to the
  leftmost leaf below the ancestor at its level.  The scalar ``delta``
  navigates the tree in O(height), with leaves addressed by index; the row
  kernel reads a per-priority table of ancestor spans, O(leaves x height),
  built on its first call.  Both are monotone in leaf order.

* Mean payoff: a saturating counter over [0, (n-1)*N], started at the top;
  a letter is rejected exactly when it would push the counter below zero.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .automaton import SafetyAutomaton, _solve_flat
from .core import InvalidGameError, MeanPayoff, Parity

__all__ = [
    "UniversalTree",
    "universal_tree",
    "parity_separator",
    "mp_separator",
    "parity_state_bound",
    "separator_stats",
]


class _TreeNode:
    """Internal node; ``cum`` holds prefix sums of the children's leaf counts
    so navigation can binary-search a leaf index at each level."""

    __slots__ = ("children", "leaf_count", "cum")

    def __init__(self, children: tuple) -> None:
        self.children = children
        self.leaf_count = sum(c.leaf_count for c in children) if children else 1
        cum = [0]
        for c in children:
            cum.append(cum[-1] + c.leaf_count)
        self.cum = cum


_LEAF = _TreeNode(())


@lru_cache(maxsize=None)
def _build(n: int, h: int) -> Optional[_TreeNode]:
    if n <= 0:
        return None
    if h == 0:
        return _LEAF
    left = _build(n // 2, h)
    middle = _build(n, h - 1)
    right = _build(n - 1 - n // 2, h)
    children = (left.children if left else ()) + (middle,) + (right.children if right else ())
    return _TreeNode(children)


@dataclass(frozen=True, eq=False)
class UniversalTree:
    """Ordered tree with all leaves at depth ``height`` into which every
    ordered tree with at most ``capacity`` leaves (all at that depth) embeds,
    preserving order and depth.

    Built by halving: the root merges the children of the tree for half the
    capacity, one fresh subtree of full capacity and reduced height, and the
    children of the tree for the remaining capacity.
    """

    capacity: int
    height: int
    root: Optional[_TreeNode]

    @property
    def leaf_count(self) -> int:
        return self.root.leaf_count if self.root else 0

    def leaf_tuple(self, index: int) -> tuple:
        """Child-index address of a leaf, from the root level down; the
        lexicographic order of addresses is the left-to-right leaf order."""
        self._check(index)
        return tuple(self._descend(index))

    def leaf_index(self, address: tuple) -> int:
        """Inverse of :meth:`leaf_tuple`."""
        node = self.root
        index = 0
        if node is None or len(address) != self.height:
            raise InvalidGameError(f"address {address!r} does not fit this tree")
        for ci in address:
            if not 0 <= ci < len(node.children):
                raise InvalidGameError(f"address {address!r} does not fit this tree")
            index += node.cum[ci]
            node = node.children[ci]
        return index

    def _check(self, index: int) -> None:
        if not 0 <= index < self.leaf_count:
            raise InvalidGameError(f"leaf index {index} out of range")

    def ancestor_span(self, index: int, level: int) -> tuple:
        """(first leaf index, leaf count) of the ancestor of leaf ``index``
        sitting ``level`` levels above the leaves (0 = the leaf itself)."""
        self._check(index)
        if not 0 <= level <= self.height:
            raise InvalidGameError(f"level {level} out of range")
        node = self.root
        start = 0
        depth = self.height
        while depth > level:
            rel = index - start
            ci = _bisect_cum(node.cum, rel)
            start += node.cum[ci]
            node = node.children[ci]
            depth -= 1
        return start, node.leaf_count

    def span_table(self) -> tuple:
        """``(starts, ends)``, both of shape (height + 1, leaf_count): row
        ``level`` holds, for every leaf, the first leaf and one past the last
        leaf of its ancestor ``level`` levels up, as :meth:`ancestor_span`
        gives them one at a time.  O(leaf_count * height)."""
        total = self.leaf_count
        starts = np.empty((self.height + 1, total), dtype=np.int64)
        ends = np.empty_like(starts)
        if self.root is None:
            return starts, ends
        # the nodes of one level, grouped by (shared) node object: the first
        # leaf of every occurrence
        level_nodes = {id(self.root): (self.root, [np.zeros(1, dtype=np.int64)])}
        for level in range(self.height, -1, -1):
            first = np.zeros(total, dtype=bool)
            below: dict = {}
            for node, chunks in level_nodes.values():
                at = np.concatenate(chunks)
                first[at] = True
                by_child: dict = {}
                for child, off in zip(node.children, node.cum):
                    by_child.setdefault(id(child), (child, []))[1].append(off)
                for key, (child, offs) in by_child.items():
                    below.setdefault(key, (child, []))[1].append((at[:, None] + offs).ravel())
            level_nodes = below
            bounds = np.append(np.flatnonzero(first), total)
            span = np.cumsum(first) - 1
            starts[level] = bounds[span]
            ends[level] = bounds[span + 1]
        return starts, ends

    def _descend(self, index: int) -> list:
        node = self.root
        start = 0
        address = []
        for _ in range(self.height):
            rel = index - start
            ci = _bisect_cum(node.cum, rel)
            address.append(ci)
            start += node.cum[ci]
            node = node.children[ci]
        return address


def _bisect_cum(cum: list, rel: int) -> int:
    return bisect.bisect_right(cum, rel) - 1


def universal_tree(n: int, h: int) -> UniversalTree:
    if n < 0 or h < 0:
        raise InvalidGameError("universal tree parameters must be >= 0")
    return UniversalTree(capacity=n, height=h, root=_build(n, h))


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
    order (the solver checks it on the filled transition table).

    The row kernel reads a table ``T[p, q]``: the start of q's ancestor span
    at p's level for even p, its end (or -1 past the last leaf) for odd p.
    """
    if n < 1 or max_priority < 0:
        raise InvalidGameError("parity separator needs n >= 1 and max_priority >= 0")
    height = (max_priority + 1) // 2
    tree = universal_tree(n, height)
    states = tree.leaf_count

    def delta(q: int, p: int) -> Optional[int]:
        if p % 2:
            start, count = tree.ancestor_span(q, (p + 1) // 2 - 1)
            following = start + count
            return following if following < states else None
        start, _ = tree.ancestor_span(q, p // 2)
        return start

    def state_label(q: int) -> str:
        return "(" + ",".join(str(x) for x in tree.leaf_tuple(q)) + ")"

    table = None

    def row_kernel(colors: Sequence[int]):
        nonlocal table
        if table is None:
            starts, ends = tree.span_table()
            table = np.empty((max_priority + 1, states), dtype=np.int64)
            for p in range(max_priority + 1):
                if p % 2:
                    following = ends[(p + 1) // 2 - 1]
                    table[p] = np.where(following < states, following, -1)
                else:
                    table[p] = starts[p // 2]
        by_state = np.ascontiguousarray(table[np.asarray(colors, dtype=np.intp)].T)
        return lambda qs: by_state[qs]

    return SafetyAutomaton(
        state_count=states,
        initial=0,
        alphabet=Parity(max_priority),
        delta=delta,
        state_label=state_label,
        row_kernel=row_kernel,
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
        row_kernel=lambda colors: _counter_rows(top, colors),
        rank=np.arange(top, -1, -1),
    )


def _counter_rows(top: int, weights: Sequence[int]):
    """Row kernel of a counter saturating at ``top``: the sum of state and
    weight, capped at ``top``, and -1 below zero."""
    weights = np.asarray(weights, dtype=np.int64)

    def rows(states: np.ndarray) -> np.ndarray:
        s = np.asarray(states, dtype=np.int64)[:, None] + weights
        return np.where(s < 0, -1, np.minimum(s, top))

    return rows


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
        _, flat = _solve_flat(game, aut, list(range(game.vertex_count)))
        stats["product_states"] = flat["product_states"]
        stats["product_edges"] = flat["product_edges"]
    return stats
