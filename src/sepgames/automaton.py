"""Deterministic safety automata, sequential products, and the chained game
reduction.

An automaton is a partial transition function over dense integer states; big
generated families (tree-walking parity automata, bounded counters, their
sequential chains) expose ``delta`` as a computed function rather than a
table.  Each family also has a vectorized ``row_kernel`` that evaluates
``delta`` for whole arrays of states at once (the parity one from
per-priority leaf spans it tabulates on first use); the lifts and the flat
product below fill their states x colors transition table with it in one
pass.

Solving a game through a separating automaton fills that table once, on
the game's colors, and takes one of two routes, chosen in ``_solve_roots``
by the table alone:

* lifts: when ``delta`` is monotone in Eve's order of the states (the
  automaton's ``rank``; leaf order for parity, counters from the top down),
  value iteration keeps one threshold rank per game vertex and never builds
  the product; memory is O(states x colors + edges).
* product: otherwise, a flat numpy pipeline that breadth-first explores
  integer-coded product states (``_explore``), gives each reached one a
  compact id (so its arrays grow with the reached product rather than with
  vertices times automaton states), and runs the attractor of the safety
  solver on them.

Both compute the winning region of the same chained safety game.
``chained_game`` decodes that explorer's product into objects, with ids in
its discovery order, for inspection and DOT export.
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
from .safety import _attract, solve_safety  # noqa: F401  perfbench/tracing.py wraps solve_safety

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
    ``(vertex, initial)`` pair."""
    for e in graph.edges:
        err = aut.alphabet.color_error(e[1])
        if err:
            raise AlphabetMismatchError(f"edge {e!r}: {err}")
    nq = aut.state_count
    delta = aut.delta
    succ = graph.successors
    q0 = aut.initial
    seen = {v * nq + q0 for v in range(graph.vertex_count)}
    stack = list(seen)
    while stack:
        code = stack.pop()
        v, q = divmod(code, nq)
        for c, w in succ[v]:
            t = delta(q, c)
            if t is None:
                return False
            tcode = w * nq + t
            if tcode not in seen:
                seen.add(tcode)
                stack.append(tcode)
    return True


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
# Chained game (the explored product as objects, for inspection)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainedGame:
    """Safety game synchronizing a game with an automaton, decoded from the
    product explorer (``_explore``).

    Only product states reachable from the root are materialized, with ids
    in the explorer's discovery order.  ``bottom`` is the Eve-owned losing
    sink reached on undefined transitions, present only if some undefined
    transition is reachable.  ``edge_origin`` maps each product edge to the
    index of the game edge that induced it.
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
    """Product safety game reachable from ``(v0, initial)``, as the explorer
    of the flat product finds it.  Like that route, it fills the automaton's
    transition table on the game's colors and allocates the dense code -> id
    map, 4 bytes per (vertex, state) code.  Parallel product edges (game
    edges of one vertex that lead to the same product state, the sink
    included) are merged into the first one."""
    if not 0 <= v0 < game.vertex_count:
        raise InvalidGameError(f"start vertex {v0} out of range")
    _check_alphabet(game, aut)
    g = game.graph
    n, nq = g.vertex_count, aut.state_count
    codes, srcs, dsts, roots = _explore(g, aut, [v0])
    # the k-th edge of product state (v, q) comes from the k-th edge of v:
    # the explorer sorts the game's edges stably by source
    gptr = np.concatenate(([0], np.cumsum(np.bincount(g._src_array, minlength=n))))
    k = np.arange(srcs.size) - np.searchsorted(srcs, srcs)
    origins = np.argsort(g._src_array, kind="stable")[gptr[codes[srcs] // nq] + k]
    pairs = tuple(divmod(c, nq) if c < n * nq else None for c in codes.tolist())
    bottom = pairs.index(None) if None in pairs else None
    edges: dict = {}
    for u, w, o in zip(srcs.tolist(), dsts.tolist(), origins.tolist()):
        edges.setdefault((u, None, w), o)
    product = Game(
        graph=Graph(len(pairs), tuple(edges)),
        owner=tuple(EVE if p is None else game.owner[p[0]] for p in pairs),
        objective=Safety(),
    )
    return ChainedGame(
        game=product,
        state_ids={p: i for i, p in enumerate(pairs) if p is not None},
        bottom=bottom,
        roots=tuple(roots.tolist()),
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


def _sorted_edges(g: Graph):
    """The graph's distinct colors in first-seen order, and its edges sorted
    (stably) by source as int64 arrays of sources, targets and color
    indices."""
    colors = _game_colors(g)
    cid = {c: i for i, c in enumerate(colors)}
    order = np.argsort(g._src_array, kind="stable")
    gcid = np.fromiter((cid[g.edges[i][1]] for i in order), dtype=np.int64, count=len(order))
    return colors, g._src_array[order], g._dst_array[order], gcid


def _transition_table(aut: SafetyAutomaton, colors: Sequence[Color]) -> np.ndarray:
    """The whole states x colors int32 transition table, -1 where ``delta``
    is undefined, filled in chunks of states through the row kernel (or
    ``delta`` when the automaton has none)."""
    nq = aut.state_count
    table = np.empty((nq, len(colors)), dtype=np.int32)
    if colors:
        rows = (aut.row_kernel or partial(_scalar_rows, aut.delta))(colors)
        for lo in range(0, nq, _FILL_CHUNK):
            table[lo : lo + _FILL_CHUNK] = rows(np.arange(lo, min(lo + _FILL_CHUNK, nq)))
    return table


def _explore(graph: Graph, aut: SafetyAutomaton, roots: Sequence[int], table=None):
    """Breadth-first exploration of the product of ``graph`` with ``aut``
    from ``(v, initial)`` for each root v, without python objects.

    Product states are coded ``v * state_count + q``; the losing sink, where
    an undefined transition leads, gets the one-past-the-end code and no
    edges.  ``table`` holds the automaton's transitions on the graph's
    colors (``_transition_table``); it is filled here, through the row
    kernel when there is one, when not given.  Each reached code gets an
    int32 id in discovery order through one dense code -> id map, and every
    later array is indexed by id, so it grows with the reached product
    rather than with the code range.  The edges of product state (v, q)
    follow the edges of v in graph order, one each, parallel ones included.

    Returns the reached codes in id order (int64), the edges as int32 arrays
    of source and target ids sorted by source, and the roots' ids.
    """
    n, nq = graph.vertex_count, aut.state_count
    bot = n * nq

    colors, gsrc, gdst, gcid = _sorted_edges(graph)
    ncol = len(colors)
    # vertex n stands for the sink and has no edges
    gptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(gsrc, minlength=n), out=gptr[1 : n + 1])
    gptr[n + 1] = gptr[n]

    if table is None:
        table = _transition_table(aut, colors)
    table = table.reshape(-1)

    # code -> id; -1 marks an unreached code.  While a level assigns ids, the
    # codes it discovers hold -2 - (position in the level) as a stamp, so
    # the occurrence whose stamp survives is the one that keeps its id.
    ids = np.full(bot + 1, -1, dtype=np.int32)
    codes: list = []
    count = 0

    def number(fresh: np.ndarray) -> None:
        nonlocal count
        pos = np.arange(fresh.size, dtype=np.int32)
        ids[fresh] = -2 - pos
        fresh = fresh[ids[fresh] == -2 - pos]
        ids[fresh] = np.arange(count, count + fresh.size, dtype=np.int32)
        codes.append(fresh)
        count += fresh.size

    root_codes = np.array([v * nq + aut.initial for v in roots], dtype=np.int64)
    number(root_codes)
    outdeg_chunks: list = []
    dst_chunks: list = []
    for level in codes:
        # ``codes`` grows while this loop runs: one chunk per BFS level
        fv = level // nq
        fq = level - fv * nq
        starts = gptr[fv]
        lens = gptr[fv + 1] - starts
        outdeg_chunks.append(lens)
        total = int(lens.sum())
        if total == 0:
            continue
        idx = _slices(starts, lens, total)
        tq = table[np.repeat(fq * ncol, lens) + gcid[idx]]
        tcode = np.where(tq >= 0, gdst[idx] * nq + tq, bot)
        tid = ids[tcode]
        unseen = tid < 0
        if unseen.any():
            fresh = tcode[unseen]
            number(fresh)
            tid[unseen] = ids[fresh]
        dst_chunks.append(tid)

    root_ids = ids[root_codes]
    del ids
    srcs = np.repeat(np.arange(count, dtype=np.int32), np.concatenate(outdeg_chunks))
    del outdeg_chunks
    dsts = np.concatenate(dst_chunks) if dst_chunks else np.zeros(0, dtype=np.int32)
    return np.concatenate(codes), srcs, dsts, root_ids


def _solve_flat(game: Game, aut: SafetyAutomaton, roots: Sequence[int], table=None):
    """Solve the chained game on the integer-coded product of ``_explore``
    (``table`` as there): Adam attracts to the Eve-owned dead ends, the
    losing sink among them.  Returns (per-root win flags, stats dict).
    """
    g = game.graph
    n, nq = g.vertex_count, aut.state_count
    codes, srcs, dsts, root_ids = _explore(g, aut, roots, table)
    count = codes.size
    vertex = codes // nq
    del codes
    # per game vertex, the sink (vertex n) last: Eve-owned, and without edges
    eve = np.append(np.fromiter((o is EVE for o in game.owner), dtype=bool, count=n), True)
    stuck = eve & np.append(np.bincount(g._src_array, minlength=n) == 0, True)
    seed = np.flatnonzero(stuck[vertex]).astype(np.int32)
    eve = eve[vertex]
    del vertex
    wins = ~_attract(count, srcs, dsts, eve, seed)[root_ids]
    stats = {
        "path": "product",
        "automaton_states": nq,
        "product_states": count,
        "product_edges": srcs.size,
    }
    return wins, stats


def _solve_lifts(game: Game, aut: SafetyAutomaton, roots: Sequence[int], table=None):
    """Solve the chained game by value iteration, without building the
    product.  Valid only when ``delta`` is monotone in the automaton's rank
    order on the game's colors (see ``_is_monotone``); ``table`` is its
    ranked transition table on them (``_ranked``), filled here when not
    given.

    Since a lower rank is then never worse for Eve, the states from which
    she wins at vertex v are those ranked up to a threshold ``t[v]`` (-1
    when there are none).  The thresholds are the greatest fixpoint of

        t[v] = max (Eve) or min (Adam) over edges (v, c, w) of pre(c, t[w]),

    where ``pre(c, t)`` is the largest rank r with ``delta(r, c) <= t``, or
    -1.  Iteration starts with every threshold at the last rank and Eve-owned
    sinks at -1, and lifts the vertices of the roots' cone one at a time
    from a LIFO worklist, which gets a vertex back whenever one of its
    successors drops.  Returns (per-root win flags, stats dict).
    """
    g = game.graph
    n, nq = g.vertex_count, aut.state_count
    colors, src, dst, cid = _sorted_edges(g)
    if table is None:
        table = _ranked(_transition_table(aut, colors), aut.rank)
    lookup = memoryview(_pre_table(table, nq))  # indexes as Python ints, without a copy

    # only the edges leaving the game vertices reachable from the roots
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    keep = _cone(ptr, dst, roots)[src]
    sources = src[keep].tolist()
    # each edge as (its color's offset into the pre table, target)
    outs: list = [[] for _ in range(n)]
    preds: list = [[] for _ in range(n)]
    for v, a, w in zip(sources, (cid[keep] * (nq + 1) + 1).tolist(), dst[keep].tolist()):
        outs[v].append((a, w))
        preds[w].append(v)

    eve = [o is EVE for o in game.owner]
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

    initial = aut.initial if aut.rank is None else int(aut.rank[aut.initial])
    wins = [initial <= level[v] for v in roots]
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
    """Is every column of a transition table non-decreasing in the state,
    with undefined (-1) counting as above every state?  Stops at the first
    column that decreases."""
    top = len(table)
    for column in table.T:
        ordered = np.where(column < 0, top, column)
        if (ordered[1:] < ordered[:-1]).any():
            return False
    return True


def _ranked(table: np.ndarray, rank: Optional[np.ndarray]) -> np.ndarray:
    """A transition table renumbered by ``rank``: row ``rank[q]`` holds the
    ranks of q's successors, -1 where undefined.  The table itself when
    ``rank`` is ``None``."""
    if rank is None:
        return table
    targets = table[np.argsort(rank)]
    return np.where(targets < 0, -1, rank.astype(np.int32)[targets])


def _pre_table(table: np.ndarray, nq: int) -> np.ndarray:
    """``pre(c, t)`` of a monotone transition table: the largest state q with
    ``delta(q, c) <= t`` (-1 if none), for the i-th color c and every t in
    [-1, nq), as an int32 array indexed ``i * (nq + 1) + t + 1``."""
    ncol = table.shape[1]
    # undefined counts as above every state
    ordered = np.where(table < 0, nq, table)
    # one search over the color columns laid end to end, each offset by
    # i * (nq + 2) so that no two columns' ranges meet
    stride = np.arange(ncol, dtype=np.int64)[:, None] * (nq + 2)
    laid = (ordered.T + stride).ravel()
    del ordered
    pre = np.searchsorted(laid, (np.arange(-1, nq) + stride).ravel(), side="right") - 1
    pre -= np.repeat(np.arange(ncol, dtype=np.int64) * nq, nq + 1)
    return pre.astype(np.int32)


def _slices(starts: np.ndarray, lens: np.ndarray, total: int) -> np.ndarray:
    """The index ranges ``[starts[i], starts[i] + lens[i])``, concatenated;
    ``total`` is the sum of ``lens``."""
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(total)


# ---------------------------------------------------------------------------
# Game solving through a separating automaton
# ---------------------------------------------------------------------------


def _solve_roots(game: Game, aut: SafetyAutomaton, roots: Sequence[int]):
    """Does Eve win the chained game from ``(v, initial)``, for each root v?
    Returns (per-root win flags, stats dict naming the route in ``path``).

    The transition table on the game's colors is filled once.  If it is
    monotone in the automaton's rank order the game is solved by lifts,
    otherwise by the flat product.
    """
    _check_alphabet(game, aut)
    table = _transition_table(aut, _game_colors(game.graph))
    ranked = _ranked(table, aut.rank)
    if _is_monotone(ranked):
        return _solve_lifts(game, aut, roots, ranked)
    return _solve_flat(game, aut, roots, table)


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
    return reachable_graph(aut).vertex_count


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
