"""Deterministic safety automata, sequential products, and the chained game
reduction.

An automaton is a partial transition function over dense integer states; big
generated families (tree-walking parity automata, bounded counters, their
sequential chains) expose ``delta`` as a computed function rather than a
table.  Each family also has a vectorized ``pre_kernel``: ``pre(c, t)``,
the last rank that moves to rank t or below on c, for every rank at once
and in closed form from the automaton's structure: the universal tree's
node sizes for parity, a shifted clip for counters, each block's ``pre``
shifted by its offset for chains.

Solving a game through a separating automaton reads the automaton in Eve's
order of its states (the automaton's ``rank``; leaf order for parity,
counters from the top down).  ``_solve_roots`` picks one of two routes, or
a fallback for automata that carry neither route's parts:

* cascade: when the automaton is a parity-or-mean-payoff separator
  (``cascade`` holds its parity part P and its counter) and P has a
  ``pre_kernel``.  The accumulated priority and the counter form a key
  automaton K that moves whatever P's state is, and P moves only on a
  counter reset, reading the accumulated priority.  So the chained game is
  (G x K) x P: the key product G x K is explored from the roots
  (``_cone``), its edges labelled with the letter P reads ("stay" when
  there is no reset), and solved by the lifts over P.  Neither the whole
  automaton's table nor its product is built.
* lifts: when the automaton has a ``pre_kernel``, so ``delta`` is monotone
  in Eve's order, value iteration with cycle jumps keeps one threshold rank
  per game vertex of the roots' cone and never builds the product; memory
  is O(states x colors + edges) for its ``pre`` array.

Every separator the package builds takes one of the two.  Anything else
(hand-built automata, separators with their kernels or cascade stripped)
is solved on its chained game: the product reached from all roots, built
as objects by ``_walk`` with one scalar ``delta`` call per product edge and
solved by ``safety.solve_safety`` (``_solve_product``).  It has no size
guard, so it is meant for small automata.

The routes find what the roots reach with one breadth-first exploration,
``_cone``: of the key product for the cascade, of the game itself (the
product with a one-key automaton) for the lifts.  The one walk of the
product with the automaton itself is ``_walk``, a lazy depth-first walk
from the roots with no table: it answers ``accepts_all_paths`` up to the
first undefined transition, builds the chained game as objects for the
fallback, for inspection and for DOT export, and sizes the product for
``separators.separator_stats``.
"""

from __future__ import annotations

import bisect
import gc
from dataclasses import dataclass
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
    _first_color_error,
)
from .safety import _eve_mask, _slices, solve_safety

# _attract is not called here, but stays a module attribute:
# perfbench/tracing.py replaces it by name on install, and a traced run
# fails without it
from .safety import _attract  # noqa: F401

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

# drops of a vertex before ``_lift`` jumps its cycle, and the rounds and first window of ``_jump``
_JUMP_AFTER = 32

PreKernel = Callable[[Sequence[Color]], np.ndarray]


@dataclass(frozen=True, eq=False)
class SafetyAutomaton:
    """Deterministic safety automaton with a computed partial ``delta``.

    ``delta(state, color)`` returns the successor state or ``None`` when
    undefined.  ``parts`` is set on sequential chains so further products can
    flatten instead of nesting closures.  ``outgoing``, when present,
    enumerates for one state a reduced set of ``(color, target)``
    representatives covering every behaviorally distinct transition with
    componentwise-minimal weights (used to keep induced graphs small for
    vector alphabets).  ``rank`` is Eve's order of the states, a
    permutation with lower ranks no worse for her; ``None`` is state order.
    ``pre_kernel``, when present, asserts that ``delta`` is monotone in that
    order on every color, and ``pre_kernel(colors)`` returns ``pre`` on
    them: a flat int32 array holding at ``i * (state_count + 1) + t + 1``
    the last rank whose successor on the i-th color ranks t or below (-1 if
    none; -1 for t = -1), where an undefined successor ranks above every
    state.  The solver takes the lifts on it without filling any table;
    without it, the automaton's chained game is built and solved as
    objects.
    ``cascade`` is set by ``combos.parity_mp_separator`` alone: its parity
    automaton and its counter, the parts its states (accumulated priority,
    parity state, counter state) are made of, which the solver reads
    instead of ``delta`` (see ``_solve_cascade``).
    """

    state_count: int
    initial: int
    alphabet: Objective
    delta: Callable[[int, Color], Optional[int]]
    parts: Optional[tuple] = None
    outgoing: Optional[Callable[[int], Sequence[tuple[Color, Optional[int]]]]] = None
    state_label: Optional[Callable[[int], str]] = None
    rank: Optional[np.ndarray] = None
    cascade: Optional[tuple] = None
    pre_kernel: Optional[PreKernel] = None

    def __post_init__(self) -> None:
        if self.state_count < 1:
            raise InvalidGameError("an automaton needs at least one state")
        if not 0 <= self.initial < self.state_count:
            raise InvalidGameError("initial state out of range")
        rank, nq = self.rank, self.state_count
        if rank is not None and not (np.shape(rank) == (nq,) and np.array_equal(np.sort(rank), np.arange(nq))):
            raise InvalidGameError("rank must be a permutation of the states")
        if self.cascade is not None:
            parity, counter = self.cascade
            if nq != (parity.alphabet.max_priority + 1) * parity.state_count * counter.state_count:
                raise InvalidGameError("a cascade's parts must make up the states")

    def label(self, q: int) -> str:
        return self.state_label(q) if self.state_label else str(q)


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
    bad = _first_color_error(aut.alphabet, [e[1] for e in graph.edges])
    if bad:
        raise AlphabetMismatchError(f"edge {graph.edges[bad[0]]!r}: {bad[1]}")
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
    block's initial state, and is undefined only in the last block.  It
    ranks block by block; a jump lands on a block's initial state, first in
    counters' and trees' ranks, so chains of those stay monotone.

    Then ``pre(c, t) = o_j + pre_j(c, t - o_j)`` for t in the block at
    offset o_j: every earlier block's states move to ranks <= o_j on c, and
    every later block's above t.  So the chain has a ``pre_kernel`` when
    every block has one and ranks its initial state first.  It evaluates
    each distinct block once, however many times the chain repeats it.
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

    # each distinct block, with the offsets it sits at
    placed: dict = {}
    for b, o in zip(blocks, offsets):
        placed.setdefault(id(b), (b, []))[1].append(o)

    def pre_kernel(colors: Sequence[Color]) -> np.ndarray:
        pre = np.empty((len(colors), total + 1), dtype=np.int32)
        pre[:, 0] = -1
        for b, at in placed.values():
            o = np.array(at)[:, None]
            block = b.pre_kernel(colors).reshape(len(colors), b.state_count + 1)[:, 1:]
            pre[:, o + np.arange(1, b.state_count + 1)] = block[:, None] + o
        return pre.ravel()

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
        rank=rank,
        pre_kernel=pre_kernel if all(b.pre_kernel and _initial_rank(b) == 0 for b in blocks) else None,
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
# Chained game (the walked product as objects)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainedGame:
    """Safety game synchronizing a game with an automaton, collected from
    the product walk (``_walk``).

    Only product states reachable from the roots are materialized, with
    ids for the roots' states first, in the order the roots are listed, then
    in the order the walk first meets them.  ``roots`` holds each root's id,
    repeats included.  ``bottom`` is the Eve-owned losing sink reached on
    undefined transitions, present only if some undefined transition is
    reachable.  ``edge_origin`` maps each product edge to the index of the
    game edge that induced it.
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
    """Product safety game reachable from ``(v0, initial)``, whose id is 0
    (``_chained``)."""
    if not 0 <= v0 < game.vertex_count:
        raise InvalidGameError(f"start vertex {v0} out of range")
    _check_alphabet(game, aut)
    return _chained(game, aut, [v0])


def _chained(game: Game, aut: SafetyAutomaton, roots: Sequence[int]) -> ChainedGame:
    """Product safety game reachable from ``(v, initial)`` for each root v,
    built with one scalar ``delta`` call per product edge.  Parallel
    product edges (game edges of one vertex that lead to the same product
    state, the sink included) are merged into the first one."""
    g = game.graph
    nq = aut.state_count
    # each vertex's game edge indices, in ``successors`` order
    out: list = [[] for _ in range(g.vertex_count)]
    for i, (u, _, _) in enumerate(g.edges):
        out[u].append(i)
    # code -> id, the roots' first; the sink is the code None
    ids: dict = {}
    for v in roots:
        ids.setdefault(v * nq + aut.initial, len(ids))
    edges: dict = {}
    for code, k, t in _walk(g, aut, dict.fromkeys(roots)):
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
        roots=tuple(ids[v * nq + aut.initial] for v in roots),
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
# Solving the chained game: the lifts, the cascade, and the object product
# ---------------------------------------------------------------------------


def _game_colors(g: Graph) -> list:
    """The graph's distinct colors in first-seen order."""
    return list(dict.fromkeys(e[1] for e in g.edges))


def _cone(game: Game, keys: np.ndarray, letters: np.ndarray, roots: Sequence[int], start: int = 0):
    """Breadth-first exploration of the product of the game with a total
    deterministic key automaton, from ``(v, start)`` for each root v.
    ``keys`` holds the next key per key and index into the game's colors
    (``_game_colors``), ``letters`` what each of those transitions reads.
    The lifts pass the one-key automaton, so the product is the roots' cone
    in the game itself.

    Product states are coded ``v * key count + k``, reached ones marked in a
    bool mask over every code.  Ids follow code order, vertex order on the
    one-key automaton, not the order of discovery: the lifts' worklist
    starts in id order, which sets how many lifts they take (discovery order
    takes 1.4 times as many on the disj-mp benchmark game, 3.3 without the
    cycle jumps).  Returns
    (whether Eve owns each reached state, as a bool array; the edges sorted
    stably by source, as int64 arrays of source ids, target ids and the
    ``letters`` entry each reads; the roots' ids; and the reached codes in
    id order).
    """
    g, nk = game.graph, keys.shape[0]
    cid = {c: i for i, c in enumerate(_game_colors(g))}
    order = np.argsort(g._src_array, kind="stable")
    dst = g._dst_array[order]
    col = np.fromiter((cid[g.edges[i][1]] for i in order), dtype=np.int64, count=len(order))
    ptr = np.zeros(g.vertex_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(g._src_array, minlength=g.vertex_count), out=ptr[1:])

    def edges(codes: np.ndarray):
        v, k = np.divmod(codes, nk)
        lens = ptr[v + 1] - ptr[v]
        e = _slices(ptr[v], lens, int(lens.sum()))
        k, c = np.repeat(k, lens), col[e]
        return lens, dst[e] * nk + keys[k, c], k, c

    seen = np.zeros(g.vertex_count * nk, dtype=bool)
    starts = np.asarray(roots, dtype=np.int64) * nk + start
    frontier = np.unique(starts)
    seen[frontier] = True
    while frontier.size:
        target = edges(frontier)[1]
        frontier = np.unique(target[~seen[target]])
        seen[frontier] = True
    codes = np.flatnonzero(seen)
    lens, target, k, c = edges(codes)
    src = np.repeat(np.arange(codes.size), lens)
    eve = _eve_mask(game)[codes // nk]
    return eve, src, np.searchsorted(codes, target), letters[k, c], np.searchsorted(codes, starts), codes


def _solve_product(game: Game, aut: SafetyAutomaton, roots: Sequence[int]):
    """Solve the chained game of an automaton that has neither route's
    parts: the product reached from all the roots at once, built as objects
    (``_chained``) and solved by ``solve_safety``.  Returns (per-root win
    flags, stats dict).  The stats count the product states, the sink
    included when reached (as ``separators.separator_stats`` counts them
    from every vertex), and those Adam attracts."""
    chain = _chained(game, aut, roots)
    # called through the module attribute, which a tracer may replace
    wins = solve_safety(chain.game).eve_wins
    n = chain.game.vertex_count
    stats = {
        "path": "product",
        "automaton_states": aut.state_count,
        "product_states": n,
        "attracted": n - len(wins),
    }
    return [r in wins for r in chain.roots], stats


def _solve_lifts(game: Game, aut: SafetyAutomaton, roots: Sequence[int]):
    """Solve the chained game by value iteration (``_lift``) on the roots'
    cone, without building the product, from the automaton's ``pre_kernel``
    on the game's colors.  The cone (``_cone``) is numbered in vertex
    order.  Returns (per-root win flags, stats dict)."""
    nq = aut.state_count
    colors = _game_colors(game.graph)
    pre = aut.pre_kernel(colors)
    # the one-key automaton: key 0 on every color, reading the color's index
    eve, src, dst, cid, root_ids, _ = _cone(game, *np.indices((1, len(colors))), roots)
    wins, lifts, jumps = _lift(eve, src, dst, cid, root_ids, pre, nq, _initial_rank(aut))
    return wins, {"path": "lifts", "automaton_states": nq, "vertex_lifts": lifts, "cycle_jumps": jumps}


def _lift(eve, src, dst, cid, root_ids, pre: np.ndarray, nq: int, initial: int):
    """Value iteration on a game of ``eve.size`` vertices (Eve's as a bool
    mask) with edges ``src -> dst`` labelled by letter indices ``cid``, for
    an automaton of ``nq`` states whose table is monotone in its rank order.

    Since a lower rank is then never worse for Eve, the states from which
    she wins at vertex v are those ranked up to a threshold ``t[v]`` (-1
    when there are none).  The thresholds are the greatest fixpoint of

        t[v] = max (Eve) or min (Adam) over edges (v, c, w) of pre(c, t[w]),

    where ``pre(c, t)`` is the largest rank r with ``delta(r, c) <= t``, or
    -1, read from ``pre[c * (nq + 1) + t + 1]`` (a ``pre_kernel``'s layout).
    Iteration starts with every threshold at the last rank and Eve-owned
    sinks at -1, and lifts the vertices one at a time from a LIFO worklist,
    which gets a vertex back whenever one of its successors drops.  On a
    cycle whose top priority is odd, or whose weight is negative, the
    thresholds fall a rank or a weight per pass, so a vertex that has
    dropped ``_JUMP_AFTER`` times, twice as many after each jump there,
    jumps its cycle (``_jump``).  Returns (whether the rank ``initial`` is
    within the threshold of each of ``root_ids``, the vertex lifts, the
    jumps).
    """
    n = eve.size
    lookup = memoryview(pre)  # indexes as Python ints, without a copy

    # each edge as (its letter's offset into the pre table, target), with
    # the cyclic collector paused: one tuple per edge sets it off many times
    sources = src.tolist()
    outs: list = [[] for _ in range(n)]
    preds: list = [[] for _ in range(n)]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for v, a, w in zip(sources, (cid * (nq + 1) + 1).tolist(), dst.tolist()):
            outs[v].append((a, w))
            preds[w].append(v)
    finally:
        if collecting:
            gc.enable()

    eve = eve.tolist()
    level = [nq - 1] * n
    for v in range(n):
        if eve[v] and not outs[v]:
            level[v] = -1
    pending = sorted(set(sources))
    queued = bytearray(n)
    for v in pending:
        queued[v] = 1
    drops, due, idle = [0] * n, [_JUMP_AFTER] * n, [-1] * n
    lifts = jumps = 0
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
            drops[v] += 1
            if drops[v] == due[v]:
                due[v] *= 2
                jumps += 1
                for x in _jump(v, outs, eve, level, pre, drops, idle):
                    for u in preds[x]:
                        if not queued[u]:
                            queued[u] = 1
                            pending.append(u)

    return [initial <= level[v] for v in root_ids.tolist()], lifts, jumps


def _jump(v, outs, eve, level, pre: np.ndarray, drops, idle) -> list:
    """Cycle acceleration for ``_lift``: follow the best edges at the
    current thresholds ``level`` from ``v`` to a cycle u_0 -> ... -> u_0,
    lower the thresholds on it, and return the vertices lowered.

    With c_i the letter of u_i's best edge and its other edges held at
    their best value e_i, t[u_i] is at most h_i(t[u_{i+1}]), where h_i(x) =
    min(t[u_i], max (Eve) or min (Adam) of (e_i, pre(c_i, x))).  So t[u_0]
    falls to the largest x with x <= g(x), g = h_0 o ... o h_{k-1}, found by
    ``_JUMP_AFTER`` rounds of x <- g(x), then on windows of ranks below (one
    gather from ``pre`` per cycle vertex), doubling toward -1.  The
    thresholds, and so the e_i, are at or above the greatest fixpoint,
    whose t[u_0] is such an x, so the jump stays above it.
    """
    lookup = memoryview(pre)
    at, path = {}, []  # path: (u_i, c_i's offset into pre, h_i's floor and cap)
    while v not in at:
        if not outs[v] or idle[v] == drops[v]:  # no drop since a jump through v lowered nothing
            return []
        at[v] = len(path)
        lifted = [lookup[a + level[w]] for a, w in outs[v]]
        best = lifted.index(max(lifted) if eve[v] else min(lifted))
        a, w = outs[v][best]
        exits = lifted[:best] + lifted[best + 1 :]
        path.append((v, a, max(exits, default=-1), level[v]) if eve[v] else (v, a, -1, min([*exits, level[v]])))
        v = w
    cycle = path[at[v] :]
    top = level[v]
    for _ in range(_JUMP_AFTER):
        x = top
        for _, a, floor, cap in reversed(cycle):
            x = min(max(lookup[a + x], floor), cap)
        if x >= top:
            break
        top = x
    else:
        width = _JUMP_AFTER
        while True:
            # int32 like ``pre``: a window can span the whole rank range
            xs = np.arange(max(top - width, -1), top + 1, dtype=np.int32)
            gx = xs.copy()
            for _, a, floor, cap in reversed(cycle):
                gx += a
                gx = pre[gx]
                np.clip(gx, floor, cap, out=gx)
            fits = xs[xs <= gx]
            if fits.size:
                break
            top, width = int(xs[0]) - 1, 2 * width
        top = int(fits[-1])
    lowered = [v] if top < level[v] else []
    level[v] = x = top
    for u, a, floor, cap in cycle[:0:-1]:
        x = min(max(lookup[a + x], floor), cap)
        if x < level[u]:
            level[u] = x
            lowered.append(u)
    if not lowered:
        for u in at:
            idle[u] = drops[u]
    return lowered


def _key_table(counter: SafetyAutomaton, max_priority: int, colors: Sequence[Color]):
    """The key automaton of a parity-or-mean-payoff separator on the game's
    colors: keys ``m * counter states + q`` for the accumulated priority m
    in [0, max_priority] and the counter state q.  On (p, w) the counter
    reads w (one ``delta`` call per counter state and distinct weight); if
    it moves to t, the key goes to (max(m, p), t) and the parity part
    stays, otherwise the key resets to (0, counter initial) and the parity
    part reads max(m, p).

    Returns two int64 keys x colors tables: the next key, and the letter the
    parity part reads, ``max_priority + 1`` for "stay".
    """
    nc, delta = counter.state_count, counter.delta
    weights = list(dict.fromkeys(w for _, w in colors))
    at = {w: i for i, w in enumerate(weights)}
    moved = [-1 if (t := delta(q, w)) is None else t for q in range(nc) for w in weights]
    moved = np.array(moved, dtype=np.int64).reshape(nc, len(weights))[:, [at[w] for _, w in colors]]
    priorities = np.array([p for p, _ in colors], dtype=np.int64)
    acc = np.maximum(np.arange(max_priority + 1)[:, None], priorities)[:, None]
    kept = moved >= 0
    keys = np.where(kept, acc * nc + moved, counter.initial)
    letters = np.where(kept, max_priority + 1, acc)
    shape = ((max_priority + 1) * nc, len(colors))
    return keys.reshape(shape), letters.reshape(shape)


def _solve_cascade(game: Game, aut: SafetyAutomaton, roots: Sequence[int]):
    """Solve the chained game of a parity-or-mean-payoff separator as (G x
    K) x P: the lifts (``_lift``) over its parity part P, on the key product
    G x K (``_key_table``, ``_cone``), from P's ``pre_kernel`` on the
    priorities.

    A key-product edge reads a priority where the counter resets and
    "stay" elsewhere, an identity column appended to P's ``pre`` table, so
    nothing assumes which priority P's identity is.  From (v, initial) the
    automaton is at key (0, counter initial) and P's initial state, so a
    root wins when P's initial rank is within the threshold of its
    key-product code.  Returns (per-root win flags, stats dict).
    """
    parity, counter = aut.cascade
    d, nq = parity.alphabet.max_priority, parity.state_count
    pre = parity.pre_kernel(range(d + 1))
    keys, letters = _key_table(counter, d, _game_colors(game.graph))
    eve, src, dst, read, root_ids, codes = _cone(game, keys, letters, roots, counter.initial)
    pre = np.concatenate((pre, np.arange(-1, nq, dtype=np.int32)))
    wins, lifts, jumps = _lift(eve, src, dst, read, root_ids, pre, nq, _initial_rank(parity))
    stats = {
        "path": "cascade",
        "automaton_states": aut.state_count,
        "key_states": keys.shape[0],
        "key_product_states": codes.size,
        "vertex_lifts": lifts,
        "cycle_jumps": jumps,
    }
    return wins, stats


def _initial_rank(aut: SafetyAutomaton) -> int:
    return aut.initial if aut.rank is None else int(aut.rank[aut.initial])


# ---------------------------------------------------------------------------
# Game solving through a separating automaton
# ---------------------------------------------------------------------------


def _solve_roots(game: Game, aut: SafetyAutomaton, roots: Sequence[int]):
    """Does Eve win the chained game from ``(v, initial)``, for each root v?
    Returns (per-root win flags, stats dict naming the route in ``path``).

    A cascade whose parity part has a ``pre_kernel`` is solved as one
    (``_solve_cascade``), an automaton with a ``pre_kernel`` by the lifts
    (``_solve_lifts``), and anything else on its chained game built as
    objects (``_solve_product``).  Every separator the package builds takes
    one of the first two.
    """
    _check_alphabet(game, aut)
    if aut.cascade is not None and aut.cascade[0].pre_kernel is not None:
        return _solve_cascade(game, aut, roots)
    if aut.pre_kernel is not None:
        return _solve_lifts(game, aut, roots)
    return _solve_product(game, aut, roots)


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
