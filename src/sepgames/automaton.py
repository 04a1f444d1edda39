"""Deterministic safety automata, sequential products, and the chained game
reduction.

An automaton is a partial transition function over dense integer states; big
generated families (tree-walking parity automata, bounded counters, their
sequential chains) expose ``delta`` as a computed function rather than a
table.  Each family also has a vectorized ``row_kernel`` that evaluates
``delta`` for whole arrays of states at once (the parity one by searching
the universal tree's per-level node starts); the lifts and the flat product
below fill their states x colors transition table with it in one pass.

Solving a game through a separating automaton fills that table once, on
the game's colors, with ``state_count`` where ``delta`` is undefined: the
losing sink, above every state in every order.  The table is renumbered
into Eve's order of the states (the automaton's ``rank``; leaf order for
parity, counters from the top down), and the game is restricted to the
cone of the roots (``_cone_game``).  Both routes read that one table, and
its inverse per color (``_preimages``); ``_solve_roots`` picks the route by
the table alone:

* lifts: when ``delta`` is monotone in Eve's order, value iteration keeps
  one threshold rank per game vertex and never builds the product; its
  ``pre`` table is read off the inverse's offsets, and memory is
  O(states x colors + edges).
* product: otherwise, Adam's attractor on the integer-coded product of the
  roots' cone with every state and the sink (``_solve_flat``).  It neither
  explores the product nor stores its edges: the safety solver's attractor
  (``safety._drain``) generates predecessors level by level from the
  game's edges by target and the inverse, and each code holds one int32
  counter; memory is O(cone vertices x states + states x colors).

Both compute the winning region of the same chained safety game.  The one
product exploration is ``_walk``, a lazy depth-first walk from the roots
with one scalar ``delta`` call per product edge and no table: it answers
``accepts_all_paths`` up to the first undefined transition, builds
``chained_game`` as objects for inspection and DOT export, and sizes the
product for ``separators.separator_stats``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import (
    EVE,
    AlphabetMismatchError,
    Color,
    Game,
    Graph,
    InvalidGameError,
    MeanPayoff,
    MeanPayoffDisjunction,
    Objective,
    Parity,
    ParityOrMeanPayoff,
    Safety,
)
# _attract and solve_safety are not called here, but stay module attributes:
# perfbench/tracing.py replaces both by name on install, and a traced run
# fails without them
from .safety import _attract, _drain, _slices, solve_safety  # noqa: F401

__all__ = [
    "SafetyAutomaton",
    "ChainedGame",
    "run",
    "accepts_all_paths",
    "sequential_product",
    "sequential_fold",
    "chained_game",
    "solve_via_separating",
    "separating_winning_region",
    "reachable_graph",
    "reachable_state_count",
    "automaton_dot",
    "chained_game_dot",
]

# states per row-kernel call when the flat path fills its transition table;
# caps the kernels' temporaries at a few (chunk x colors) int64 arrays
_FILL_CHUNK = 4096

RowKernel = Callable[[Sequence[Color]], Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True, eq=False)
class SafetyAutomaton:
    """Deterministic safety automaton with a computed partial ``delta``.

    ``delta(state, color)`` returns the successor state or ``None`` when
    undefined.  ``parts`` is set on sequential chains so further products can
    flatten instead of nesting closures.  ``outgoing``, when present,
    enumerates for one state a reduced set of ``(color, target)``
    representatives covering every behaviorally distinct transition with
    componentwise-minimal weights (used to keep induced graphs small for
    vector alphabets).  ``row_kernel``, when present, is the vectorized
    ``delta``: ``row_kernel(colors)`` returns a function mapping an int array
    of k states to the (k, len(colors)) int array of their successors, -1
    where ``delta`` is undefined.  ``rank`` is Eve's order of the states, a
    permutation with lower ranks no worse for her; ``None`` is state order.
    """

    state_count: int
    initial: int
    alphabet: Objective
    delta: Callable[[int, Color], Optional[int]]
    parts: Optional[tuple] = None
    outgoing: Optional[Callable[[int], Sequence[tuple[Color, Optional[int]]]]] = None
    state_label: Optional[Callable[[int], str]] = None
    row_kernel: Optional[RowKernel] = None
    rank: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.state_count < 1:
            raise InvalidGameError("an automaton needs at least one state")
        if not 0 <= self.initial < self.state_count:
            raise InvalidGameError("initial state out of range")
        rank, nq = self.rank, self.state_count
        if rank is not None and not (np.shape(rank) == (nq,) and np.array_equal(np.sort(rank), np.arange(nq))):
            raise InvalidGameError("rank must be a permutation of the states")

    def label(self, q: int) -> str:
        return self.state_label(q) if self.state_label else str(q)


def _scalar_rows(delta: Callable, colors: Sequence[Color]) -> Callable[[np.ndarray], np.ndarray]:
    """Row kernel of an automaton that has none: one ``delta`` call per entry."""

    def rows(states: np.ndarray) -> np.ndarray:
        table = [[-1 if (t := delta(q, c)) is None else t for c in colors] for q in states.tolist()]
        return np.array(table, dtype=np.int64).reshape(len(states), len(colors))

    return rows


def _check_letters(alphabet: Objective, word: Iterable[Color]):
    word = tuple(word)
    for c in word:
        err = alphabet.color_error(c)
        if err:
            raise AlphabetMismatchError(err)
    return word


def run(aut: SafetyAutomaton, word: Iterable[Color]) -> Optional[int]:
    """State reached after reading ``word`` from the initial state, or
    ``None`` if some step is undefined.  Letters outside the automaton's
    alphabet are a usage error, not a rejection."""
    word = _check_letters(aut.alphabet, word)
    q: Optional[int] = aut.initial
    for c in word:
        q = aut.delta(q, c)
        if q is None:
            return None
    return q


def accepts_all_paths(aut: SafetyAutomaton, graph: Graph) -> bool:
    """True iff every finite (hence every infinite) path of ``graph`` has a
    defined run, checked on the synchronized product started from every
    ``(vertex, initial)`` pair.  Stops at the first undefined transition."""
    for e in graph.edges:
        err = aut.alphabet.color_error(e[1])
        if err:
            raise AlphabetMismatchError(f"edge {e!r}: {err}")
    for _, _, t in _walk(graph, aut, range(graph.vertex_count)):
        if t is None:
            return False
    return True


def _walk(graph: Graph, aut: SafetyAutomaton, roots: Iterable[int]):
    """Depth-first walk of the product of ``graph`` with ``aut`` from
    ``(v, initial)`` for each of the distinct roots v, one ``delta`` call
    per product edge.

    Product states are coded ``v * state_count + q``.  Yields each product
    edge as (source code, k, target code), where the game edge that induces
    it is the k-th of ``graph.successors[v]`` and the target is ``None``
    where ``delta`` is undefined.  The walk goes no further than its caller
    reads.
    """
    nq, delta, succ = aut.state_count, aut.delta, graph.successors
    stack = [v * nq + aut.initial for v in roots]
    seen = set(stack)
    while stack:
        code = stack.pop()
        v, q = divmod(code, nq)
        for k, (c, w) in enumerate(succ[v]):
            t = delta(q, c)
            if t is not None:
                t += w * nq
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
            yield code, k, t


# ---------------------------------------------------------------------------
# Sequential products
# ---------------------------------------------------------------------------


def _parts(aut: SafetyAutomaton) -> tuple:
    return aut.parts if aut.parts is not None else (aut,)


def _effective_outgoing(block: SafetyAutomaton) -> Callable[[int], list]:
    if block.outgoing is not None:
        return block.outgoing
    alphabet, delta = block.alphabet, block.delta

    def enumerate_all(q: int) -> list:
        return [(c, delta(q, c)) for c in alphabet.colors()]

    return enumerate_all


def _chain(blocks: tuple) -> SafetyAutomaton:
    """Flat representation of the left-associated sequential product.

    The state set is the disjoint union of the blocks' states; a letter
    undefined in the current block jumps (consuming the letter) to the next
    block's initial state, and is undefined only in the last block.  The
    chain has a row kernel only if every block has one.  It ranks block by
    block; a jump lands on a block's initial state, first in counters' and
    trees' ranks, so chains of those stay monotone.
    """
    alphabet = blocks[0].alphabet
    for b in blocks[1:]:
        if b.alphabet != alphabet:
            raise AlphabetMismatchError(
                f"sequential product mixes alphabets {alphabet!r} and {b.alphabet!r}"
            )
    offsets = [0]
    for b in blocks:
        offsets.append(offsets[-1] + b.state_count)
    total = offsets[-1]
    last = len(blocks) - 1
    deltas = [b.delta for b in blocks]
    jump_target = [
        offsets[i + 1] + blocks[i + 1].initial if i < last else None for i in range(len(blocks))
    ]

    def delta(s: int, c: Color) -> Optional[int]:
        i = bisect.bisect_right(offsets, s) - 1
        t = deltas[i](s - offsets[i], c)
        if t is not None:
            return offsets[i] + t
        return jump_target[i]

    outs = [_effective_outgoing(b) for b in blocks]

    def outgoing(s: int) -> list:
        i = bisect.bisect_right(offsets, s) - 1
        result = []
        for c, t in outs[i](s - offsets[i]):
            result.append((c, offsets[i] + t if t is not None else jump_target[i]))
        return result

    def state_label(s: int) -> str:
        i = bisect.bisect_right(offsets, s) - 1
        return f"{i}:{blocks[i].label(s - offsets[i])}"

    def row_kernel(colors: Sequence[Color]) -> Callable[[np.ndarray], np.ndarray]:
        block_rows = [b.row_kernel(colors) for b in blocks]
        starts = np.array(offsets, dtype=np.int64)
        jumps = [-1 if t is None else t for t in jump_target]

        def rows(states: np.ndarray) -> np.ndarray:
            states = np.asarray(states, dtype=np.int64)
            block = np.searchsorted(starts, states, side="right") - 1
            order = np.argsort(block, kind="stable")
            cuts = np.searchsorted(block[order], np.arange(len(blocks) + 1))
            out = np.empty((states.size, len(colors)), dtype=np.int64)
            for i in np.flatnonzero(cuts[1:] > cuts[:-1]).tolist():
                sel = order[cuts[i] : cuts[i + 1]]
                t = block_rows[i](states[sel] - offsets[i])
                out[sel] = np.where(t >= 0, t + offsets[i], jumps[i])
            return out

        return rows

    rank = None
    if any(b.rank is not None for b in blocks):
        sizes = [b.state_count for b in blocks]
        ranks = [np.arange(k) if b.rank is None else b.rank for k, b in zip(sizes, blocks)]
        rank = np.concatenate(ranks) + np.repeat(np.array(offsets[:-1]), sizes)

    return SafetyAutomaton(
        state_count=total,
        initial=blocks[0].initial,
        alphabet=alphabet,
        delta=delta,
        parts=blocks,
        outgoing=outgoing,
        state_label=state_label,
        row_kernel=row_kernel if all(b.row_kernel for b in blocks) else None,
        rank=rank,
    )


def sequential_product(a1: SafetyAutomaton, a2: SafetyAutomaton) -> SafetyAutomaton:
    """Run ``a1`` until it rejects a letter, then hand the rest of the word to
    ``a2`` (the rejected letter itself is consumed by the hand-off)."""
    return _chain(_parts(a1) + _parts(a2))


def sequential_fold(auts: Sequence[SafetyAutomaton]) -> SafetyAutomaton:
    """Left fold of the sequential product; state counts add up."""
    auts = list(auts)
    if not auts:
        raise ValueError("sequential_fold needs at least one automaton")
    if len(auts) == 1:
        return auts[0]
    blocks: tuple = ()
    for a in auts:
        blocks = blocks + _parts(a)
    return _chain(blocks)


# ---------------------------------------------------------------------------
# Chained game (the walked product as objects, for inspection)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainedGame:
    """Safety game synchronizing a game with an automaton, collected from
    the product walk (``_walk``).

    Only product states reachable from the root are materialized, with ids
    in the order the walk first meets them, the root's 0.  ``bottom`` is the
    Eve-owned losing sink reached on undefined transitions, present only if
    some undefined transition is reachable.  ``edge_origin`` maps each
    product edge to the index of the game edge that induced it.
    """

    game: Game
    state_ids: dict
    bottom: Optional[int]
    roots: tuple
    product_pairs: tuple
    edge_origin: tuple
    source: Game

    def product_vertex(self, v: int, q: int) -> int:
        return self.state_ids[(v, q)]


def chained_game(game: Game, aut: SafetyAutomaton, v0: int) -> ChainedGame:
    """Product safety game reachable from ``(v0, initial)``, built with one
    scalar ``delta`` call per product edge.  Parallel product edges (game
    edges of one vertex that lead to the same product state, the sink
    included) are merged into the first one."""
    if not 0 <= v0 < game.vertex_count:
        raise InvalidGameError(f"start vertex {v0} out of range")
    _check_alphabet(game, aut)
    g = game.graph
    nq = aut.state_count
    # each vertex's game edge indices, in ``successors`` order
    out: list = [[] for _ in range(g.vertex_count)]
    for i, (u, _, _) in enumerate(g.edges):
        out[u].append(i)
    # code -> id; the sink is the code None
    ids = {v0 * nq + aut.initial: 0}
    edges: dict = {}
    for code, k, t in _walk(g, aut, [v0]):
        edges.setdefault((ids[code], None, ids.setdefault(t, len(ids))), out[code // nq][k])
    pairs = tuple(None if c is None else divmod(c, nq) for c in ids)
    product = Game(
        graph=Graph(len(pairs), tuple(edges)),
        owner=tuple(EVE if p is None else game.owner[p[0]] for p in pairs),
        objective=Safety(),
    )
    return ChainedGame(
        game=product,
        state_ids={p: i for i, p in enumerate(pairs) if p is not None},
        bottom=ids.get(None),
        roots=(0,),
        product_pairs=pairs,
        edge_origin=tuple(edges.values()),
        source=game,
    )


def _check_alphabet(game: Game, aut: SafetyAutomaton) -> None:
    if aut.alphabet != game.objective:
        raise AlphabetMismatchError(
            f"automaton alphabet {aut.alphabet!r} does not match objective {game.objective!r}"
        )


# ---------------------------------------------------------------------------
# Integer-coded solving (flat product and lifts)
# ---------------------------------------------------------------------------


def _game_colors(g: Graph) -> list:
    """The graph's distinct colors in first-seen order."""
    return list(dict.fromkeys(e[1] for e in g.edges))


def _transition_table(aut: SafetyAutomaton, colors: Sequence[Color]) -> np.ndarray:
    """The whole states x colors int32 transition table, filled in chunks of
    states through the row kernel (or ``delta`` when the automaton has
    none).  Where ``delta`` is undefined it holds ``state_count``, the
    losing sink, which stays above every state in every order."""
    nq = aut.state_count
    table = np.empty((nq, len(colors)), dtype=np.int32)
    if colors:
        rows = (aut.row_kernel or partial(_scalar_rows, aut.delta))(colors)
        for lo in range(0, nq, _FILL_CHUNK):
            block = rows(np.arange(lo, min(lo + _FILL_CHUNK, nq)))
            table[lo : lo + _FILL_CHUNK] = np.where(block < 0, nq, block)
    return table


def _cone_game(game: Game, aut: SafetyAutomaton, roots: Sequence[int], table=None):
    """What both routes solve: the game restricted to the cone of ``roots``
    (the vertices reachable from them, renumbered densely in vertex order)
    and the ranked transition table on the game's colors (``_ranked``),
    filled here when not given.

    Returns (table, the initial state's rank, the roots' cone ids, Eve's
    cone vertices as a bool mask, and the cone's edges sorted stably by
    source as int64 arrays of sources, targets and color indices).
    """
    g = game.graph
    colors = _game_colors(g)
    if table is None:
        table = _ranked(_transition_table(aut, colors), aut.rank)
    cid = {c: i for i, c in enumerate(colors)}
    order = np.argsort(g._src_array, kind="stable")
    src, dst = g._src_array[order], g._dst_array[order]
    col = np.fromiter((cid[g.edges[i][1]] for i in order), dtype=np.int64, count=len(order))
    ptr = np.zeros(g.vertex_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=g.vertex_count), out=ptr[1:])
    inside = _cone(ptr, dst, roots)
    index = np.cumsum(inside) - 1
    keep = inside[src]
    eve = np.fromiter((o is EVE for o in game.owner), dtype=bool, count=g.vertex_count)[inside]
    initial = aut.initial if aut.rank is None else int(aut.rank[aut.initial])
    root_ids = index[np.asarray(roots, dtype=np.int64)]
    return table, initial, root_ids, eve, index[src[keep]], index[dst[keep]], col[keep]


def _solve_flat(game: Game, aut: SafetyAutomaton, roots: Sequence[int], table=None):
    """Solve the chained game by Adam's attractor on the integer-coded
    product, without exploring it or storing any of its edges.  Returns
    (per-root win flags, stats dict).

    Codes are ``i * (nq + 1) + t`` for the i-th vertex of the roots' cone
    and every rank t of the ranked ``table`` (``_cone_game``), nq the state
    count; slot nq of each vertex is the losing sink where an undefined
    transition leads.  The attractor ranges over every code, reached from
    the roots or not: the reached codes are closed under successors, so on
    them it is the same.

    The attractor is ``safety._drain``, the one the safety solver runs too.
    It generates the predecessors of (w, t) level by level: (v, q) for each
    game edge (v, c, w) and each q with ``table[q, c] == t``, read off the
    table's preimages (``_preimages``), whose group for t = nq lists the
    states undefined on c.  Per code there is a single int32, 4 bytes: a
    counter of the edges it still needs into the attractor (the game
    out-degree for Eve, 1 for Adam, 0 for Eve dead ends and the sink slots),
    which is <= 0 once the code is attracted.  The stats give the codes
    spanned (``product_states``) and those attracted (``attracted``), the
    route's work, with the sink counted once.
    """
    table, initial, root_ids, eve, src, dst, cid = _cone_game(game, aut, roots, table)
    nq, stride = aut.state_count, aut.state_count + 1
    n = eve.size
    state_ptr, state_of = _preimages(table)

    counter = np.empty((n, stride), dtype=np.int32)
    counter[:, :nq] = np.where(eve, np.bincount(src, minlength=n), 1)[:, None]
    counter[:, nq] = 0
    counter = counter.ravel()
    _drain(counter, stride, src * stride, dst, cid * stride, state_ptr, state_of)

    wins = counter[root_ids * stride + initial] > 0
    stats = {
        "path": "product",
        "automaton_states": nq,
        "product_states": n * nq + 1,
        "attracted": int(np.count_nonzero(counter <= 0)) - n + 1,
    }
    return wins, stats


def _preimage_ptr(table: np.ndarray) -> np.ndarray:
    """CSR offsets of the inverse of a states x colors transition ``table``:
    group g = i * (nq + 1) + t, for the i-th color and t in [0, nq], spans
    ``ptr[g] : ptr[g + 1]`` and counts the states q with ``table[q, i] ==
    t``.  Returns int64 ptr."""
    nq, ncol = table.shape
    ptr = np.zeros(ncol * (nq + 1) + 1, dtype=np.int64)
    for i, column in enumerate(table.T):
        ptr[i * (nq + 1) + 1 : (i + 1) * (nq + 1) + 1] = np.bincount(column, minlength=nq + 1)
    return np.cumsum(ptr, out=ptr)


def _preimages(table: np.ndarray):
    """The states x colors transition ``table`` inverted, as a CSR: the
    states q with ``table[q, i] == t`` are ``states[ptr[g] : ptr[g + 1]]``
    for the group g = i * (nq + 1) + t (``_preimage_ptr``), those undefined
    on the i-th color under t = nq.  Each (q, i) is listed once, in no
    particular order within its group.  Returns (int64 ptr, int32 states)."""
    states = np.argsort(table, axis=0).T.astype(np.int32, order="C")
    return _preimage_ptr(table), states.ravel()


def _solve_lifts(game: Game, aut: SafetyAutomaton, roots: Sequence[int], table=None):
    """Solve the chained game by value iteration, without building the
    product.  Valid only when ``delta`` is monotone in the automaton's rank
    order on the game's colors (see ``_is_monotone``); ``table`` is its
    ranked transition table on them (``_cone_game``), filled when not given.

    Since a lower rank is then never worse for Eve, the states from which
    she wins at vertex v are those ranked up to a threshold ``t[v]`` (-1
    when there are none).  The thresholds are the greatest fixpoint of

        t[v] = max (Eve) or min (Adam) over edges (v, c, w) of pre(c, t[w]),

    where ``pre(c, t)`` is the largest rank r with ``delta(r, c) <= t``, or
    -1 (``_pre_table``).  Iteration starts with every threshold at the last
    rank and Eve-owned sinks at -1, and lifts the vertices of the roots'
    cone one at a time from a LIFO worklist, which gets a vertex back
    whenever one of its successors drops.  Returns (per-root win flags,
    stats dict).
    """
    table, initial, root_ids, eve, src, dst, cid = _cone_game(game, aut, roots, table)
    nq = aut.state_count
    n = eve.size
    lookup = memoryview(_pre_table(table))  # indexes as Python ints, without a copy

    # each edge as (its color's offset into the pre table, target)
    sources = src.tolist()
    outs: list = [[] for _ in range(n)]
    preds: list = [[] for _ in range(n)]
    for v, a, w in zip(sources, (cid * (nq + 1) + 1).tolist(), dst.tolist()):
        outs[v].append((a, w))
        preds[w].append(v)

    eve = eve.tolist()
    level = [nq - 1] * n
    for v in range(n):
        if eve[v] and not outs[v]:
            level[v] = -1
    pending = sorted(set(sources))
    queued = bytearray(n)
    for v in pending:
        queued[v] = 1
    lifts = 0
    while pending:
        v = pending.pop()
        queued[v] = 0
        lifts += 1
        lifted = [lookup[a + level[w]] for a, w in outs[v]]
        new = max(lifted) if eve[v] else min(lifted)
        if new < level[v]:
            level[v] = new
            for u in preds[v]:
                if not queued[u]:
                    queued[u] = 1
                    pending.append(u)

    wins = [initial <= level[v] for v in root_ids.tolist()]
    stats = {"path": "lifts", "automaton_states": nq, "vertex_lifts": lifts}
    return wins, stats


def _cone(ptr: np.ndarray, dst: np.ndarray, roots: Sequence[int]) -> np.ndarray:
    """Boolean mask of the vertices reachable from ``roots`` along edges
    sorted by source (CSR offsets ``ptr``, targets ``dst``)."""
    seen = np.zeros(len(ptr) - 1, dtype=bool)
    frontier = np.unique(np.asarray(roots, dtype=np.int64))
    seen[frontier] = True
    while frontier.size:
        starts = ptr[frontier]
        lens = ptr[frontier + 1] - starts
        reached = dst[_slices(starts, lens, int(lens.sum()))]
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    return seen


def _is_monotone(table: np.ndarray) -> bool:
    """Is every column of a transition table non-decreasing in the state?
    Stops at the first column that decreases."""
    for column in table.T:
        if (column[1:] < column[:-1]).any():
            return False
    return True


def _ranked(table: np.ndarray, rank: Optional[np.ndarray]) -> np.ndarray:
    """A transition table renumbered by ``rank``: row ``rank[q]`` holds the
    ranks of q's successors, the sink ``state_count`` ranking last.  The
    table itself when ``rank`` is ``None``."""
    if rank is None:
        return table
    return np.append(rank, len(rank)).astype(np.int32)[table[np.argsort(rank)]]


def _pre_table(table: np.ndarray) -> np.ndarray:
    """``pre(c, t)`` of a monotone transition table: the largest state q with
    ``table[q, c] <= t`` (-1 if none), for the i-th color c and every t in
    [-1, nq), as an int32 array indexed ``i * (nq + 1) + t + 1``.  The
    states with ``table[q, c] <= t`` are a prefix, so ``pre(c, t)`` is their
    number - 1: the preimage offset of group ``i * (nq + 1) + t + 1``
    (``_preimage_ptr``) less the i * nq entries of the earlier colors, - 1."""
    nq, ncol = table.shape
    pre = _preimage_ptr(table)[:-1].reshape(ncol, nq + 1)
    pre -= np.arange(ncol, dtype=np.int64)[:, None] * nq + 1
    return pre.astype(np.int32).ravel()


# ---------------------------------------------------------------------------
# Game solving through a separating automaton
# ---------------------------------------------------------------------------


def _solve_roots(game: Game, aut: SafetyAutomaton, roots: Sequence[int]):
    """Does Eve win the chained game from ``(v, initial)``, for each root v?
    Returns (per-root win flags, stats dict naming the route in ``path``).

    The transition table on the game's colors is filled and ranked once,
    and handed to either route: lifts if it is monotone, otherwise the flat
    product.
    """
    _check_alphabet(game, aut)
    table = _ranked(_transition_table(aut, _game_colors(game.graph)), aut.rank)
    solve = _solve_lifts if _is_monotone(table) else _solve_flat
    return solve(game, aut, roots, table)


def solve_via_separating(game: Game, v0: int, aut: SafetyAutomaton) -> bool:
    """Does Eve win from ``v0``?  Correct whenever ``aut`` separates at the
    size of ``game``: Eve wins the game iff she wins the chained safety game
    from ``(v0, initial)``."""
    if not 0 <= v0 < game.vertex_count:
        raise InvalidGameError(f"start vertex {v0} out of range")
    flags, _ = _solve_roots(game, aut, [v0])
    return bool(flags[0])


def separating_winning_region(game: Game, aut: SafetyAutomaton, with_stats: bool = False):
    """All vertices from which Eve wins, via one multi-rooted solve.

    Safety winning regions only depend on the forward cone of a vertex, so
    solving the product grown from every ``(v, initial)`` at once answers all
    start vertices together.
    """
    roots = list(range(game.vertex_count))
    flags, stats = _solve_roots(game, aut, roots)
    wins = frozenset(v for v, f in zip(roots, flags) if f)
    return (wins, stats) if with_stats else wins


# ---------------------------------------------------------------------------
# Induced graphs of automata
# ---------------------------------------------------------------------------


def _reduce_edges(alphabet: Objective, raw: list) -> list:
    """Collapse parallel transitions to representatives that preserve every
    cycle-structure check: exact priorities are kept, weights are minimized
    (componentwise for vectors) within each (source, priority, target) class.
    """
    if isinstance(alphabet, (Safety,)):
        return sorted({(u, None, v) for (u, c, v) in raw})
    if isinstance(alphabet, Parity):
        return sorted({(u, c, v) for (u, c, v) in raw})
    if isinstance(alphabet, MeanPayoff):
        best: dict = {}
        for u, w, v in raw:
            key = (u, v)
            if key not in best or w < best[key]:
                best[key] = w
        return sorted((u, w, v) for (u, v), w in best.items())
    if isinstance(alphabet, ParityOrMeanPayoff):
        best = {}
        for u, (p, w), v in raw:
            key = (u, p, v)
            if key not in best or w < best[key]:
                best[key] = w
        return sorted((u, (p, w), v) for (u, p, v), w in best.items())
    if isinstance(alphabet, MeanPayoffDisjunction):
        best = {}
        for u, vec, v in raw:
            key = (u, v)
            cur = best.get(key)
            best[key] = vec if cur is None else tuple(map(min, cur, vec))
        return sorted((u, vec, v) for (u, v), vec in best.items())
    raise InvalidGameError(f"unsupported alphabet {alphabet!r}")


def _reachable(aut: SafetyAutomaton) -> tuple:
    """States reachable from the initial state, in breadth-first discovery
    order, and their defined transitions ``(q, c, t)`` in the order found."""
    out = _effective_outgoing(aut)
    order = [aut.initial]
    seen = {aut.initial}
    transitions = []
    for q in order:  # grows while iterated: a breadth-first queue
        for c, t in out(q):
            if t is None:
                continue
            if t not in seen:
                seen.add(t)
                order.append(t)
            transitions.append((q, c, t))
    return order, transitions


def reachable_graph(aut: SafetyAutomaton) -> Graph:
    """Graph induced by the automaton, restricted to states reachable from the
    initial state and re-indexed densely in discovery order.

    Parallel transitions are collapsed to weight-minimal representatives; the
    reduction leaves every negative-cycle / odd-cycle verdict unchanged while
    keeping vector alphabets tractable.
    """
    order, transitions = _reachable(aut)
    index = {q: i for i, q in enumerate(order)}
    raw = [(index[q], c, index[t]) for q, c, t in transitions]
    return Graph(len(order), tuple(_reduce_edges(aut.alphabet, raw)))


def reachable_state_count(aut: SafetyAutomaton) -> int:
    return len(_reachable(aut)[0])


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _color_str(c: Color) -> str:
    if c is None:
        return "ε"
    if isinstance(c, tuple):
        return ",".join(str(x) for x in c)
    return str(c)


def automaton_dot(aut: SafetyAutomaton) -> str:
    """Graphviz rendering: states as nodes, transitions as labeled edges.
    Enumerates the reduced outgoing representatives of reachable states."""
    order, transitions = _reachable(aut)
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for q in order:
        shape = "doublecircle" if q == aut.initial else "circle"
        lines.append(f'  q{q} [label="{aut.label(q)}", shape={shape}];')
    for q, c, t in transitions:
        lines.append(f'  q{q} -> q{t} [label="{_color_str(c)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def chained_game_dot(chained: ChainedGame) -> str:
    """Graphviz rendering of a product game: Eve vertices are ellipses, Adam
    vertices boxes, and the losing sink a doubled octagon."""
    lines = ["digraph chained_game {"]
    for pid, pair in enumerate(chained.product_pairs):
        if pair is None:
            lines.append(f'  p{pid} [label="⊥", shape=doubleoctagon];')
            continue
        v, q = pair
        shape = "ellipse" if chained.game.owner[pid] is EVE else "box"
        lines.append(f'  p{pid} [label="{v},{q}", shape={shape}];')
    for u, _, v in chained.game.graph.edges:
        lines.append(f"  p{u} -> p{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
