"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (matrix closures, exhaustive
enumerations, fixpoint iterations written as plain loops) and shares no code
with the library paths it checks.
"""

from __future__ import annotations

import itertools
import random

from sepgames import ADAM, EVE, Game, Graph, SafetyAutomaton


# ---------------------------------------------------------------------------
# Reachability / strongly connected components
# ---------------------------------------------------------------------------


def reachability_closure(graph: Graph):
    """Boolean reachability matrix by repeated squaring-free iteration."""
    n = graph.vertex_count
    reach = [[False] * n for _ in range(n)]
    for u, _, v in graph.edges:
        reach[u][v] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if reach[i][j]:
                    continue
                if any(reach[i][k] and reach[k][j] for k in range(n)):
                    reach[i][j] = True
                    changed = True
    return reach


def mutual_reachability_components(graph: Graph):
    """Partition by the reflexive mutual-reachability relation."""
    n = graph.vertex_count
    reach = reachability_closure(graph)
    seen = set()
    comps = []
    for v in range(n):
        if v in seen:
            continue
        comp = {u for u in range(n) if u == v or (reach[v][u] and reach[u][v])}
        seen |= comp
        comps.append(frozenset(comp))
    return comps


# ---------------------------------------------------------------------------
# Simple cycles
# ---------------------------------------------------------------------------


def simple_cycles(graph: Graph):
    """All simple cycles as (vertices, colors); each once, rooted at its
    minimal vertex."""
    cycles = []
    for s in range(graph.vertex_count):
        stack = [(s, [s], [])]
        while stack:
            v, pv, pc = stack.pop()
            for c, w in graph.successors[v]:
                if w == s:
                    cycles.append((list(pv), pc + [c]))
                elif w > s and w not in pv:
                    stack.append((w, pv + [w], pc + [c]))
    return cycles


def cycle_weight(colors, dimension=None):
    if dimension is None:
        return sum(colors)
    return sum(c[dimension] for c in colors)


# ---------------------------------------------------------------------------
# Safety: naive greatest fixpoint and naive attractor
# ---------------------------------------------------------------------------


def naive_safety_region(game: Game):
    """Greatest fixpoint of 'Eve keeps an edge inside / Adam cannot leave'."""
    n = game.vertex_count
    alive = set(range(n))
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            succs = [w for (_, w) in game.graph.successors[v]]
            if game.owner[v] is EVE:
                ok = any(w in alive for w in succs)
            else:
                ok = all(w in alive for w in succs)
            if not ok:
                alive.discard(v)
                changed = True
    return frozenset(alive)


def naive_attractor(game: Game, target):
    """Direct fixpoint iteration of the attractor closure rules."""
    x = set(target)
    changed = True
    while changed:
        changed = False
        for v in range(game.vertex_count):
            if v in x:
                continue
            succs = [w for (_, w) in game.graph.successors[v]]
            if game.owner[v] is EVE:
                join = all(w in x for w in succs)  # vacuous for sinks
            else:
                join = any(w in x for w in succs)
            if join:
                x.add(v)
                changed = True
    return frozenset(x)


# ---------------------------------------------------------------------------
# Reachability under a strategy
# ---------------------------------------------------------------------------


def bfs_reachable_under_strategy(game: Game, sigma, v0):
    seen = {v0}
    queue = [v0]
    while queue:
        v = queue.pop(0)
        if game.owner[v] is EVE:
            chosen = sigma.choices.get(v)
            targets = [chosen[2]] if chosen else []
        else:
            targets = [w for (_, w) in game.graph.successors[v]]
        for w in targets:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


# ---------------------------------------------------------------------------
# Staged simulation of the sequential product
# ---------------------------------------------------------------------------


def staged_run_defined(a1: SafetyAutomaton, a2: SafetyAutomaton, word) -> bool:
    """Run a1 until a letter is rejected (the jump consumes that letter),
    then run a2 on the rest; defined iff a2 never rejects."""
    q = a1.initial
    i = 0
    while i < len(word):
        t = a1.delta(q, word[i])
        if t is None:
            break
        q = t
        i += 1
    else:
        return True
    i += 1  # the rejected letter is absorbed by the hand-off
    q = a2.initial
    while i < len(word):
        t = a2.delta(q, word[i])
        if t is None:
            return False
        q = t
        i += 1
    return True


# ---------------------------------------------------------------------------
# Mean payoff by value iteration (energy progress measure)
# ---------------------------------------------------------------------------


def mp_value_iteration_region(game: Game):
    """Eve's winning set for mean payoff >= 0 via minimal-credit lifting.

    mu(v) is the least initial credit keeping all partial sums nonnegative;
    finite values are bounded by (n-1)*N, so anything above that is treated
    as infinite.  Eve wins exactly where mu is finite.
    """
    n = game.vertex_count
    bound = (n - 1) * game.objective.weight_bound
    top = bound + 1
    mu = [0] * n

    def lifted(v):
        succs = game.graph.successors[v]
        if not succs:
            return 0 if game.owner[v] is ADAM else top
        vals = []
        for w, tgt in succs:
            if mu[tgt] >= top:
                vals.append(top)
            else:
                req = max(0, mu[tgt] - w)
                vals.append(top if req > bound else req)
        return min(vals) if game.owner[v] is EVE else max(vals)

    changed = True
    while changed:
        changed = False
        for v in range(n):
            new = lifted(v)
            if new > mu[v]:
                mu[v] = new
                changed = True
    return frozenset(v for v in range(n) if mu[v] < top)


# ---------------------------------------------------------------------------
# Parity games by recursive decomposition (independent of any automaton)
# ---------------------------------------------------------------------------


def zielonka_region(game: Game):
    """Eve's winning set for an edge-colored max-parity game.

    Subdivides edges so priorities sit on vertices (original vertices get the
    neutral priority 0; sinks first gain a self-loop whose priority encodes
    the finite-play convention), then runs the classical recursive
    attractor decomposition.  Exponential in the worst case but comfortable
    at a few dozen vertices.
    """
    n0 = game.vertex_count
    edges = list(game.graph.edges)
    for v in range(n0):
        if game.graph.is_sink(v):
            edges.append((v, 1 if game.owner[v] is EVE else 0, v))
    owner = list(game.owner)
    prio = [0] * n0
    succ: list = [[] for _ in range(n0)]
    for u, p, v in edges:
        w = len(owner)
        owner.append(EVE)  # out-degree 1: the owner never matters
        prio.append(p)
        succ.append([v])
        succ[u].append(w)

    def attractor(target, player, alive):
        x = set(target)
        changed = True
        while changed:
            changed = False
            for u in alive:
                if u in x:
                    continue
                outs = [t for t in succ[u] if t in alive]
                if owner[u] is player:
                    join = any(t in x for t in outs)
                else:
                    join = bool(outs) and all(t in x for t in outs)
                if join:
                    x.add(u)
                    changed = True
        return x

    def win(alive):
        if not alive:
            return set(), set()
        p = max(prio[v] for v in alive)
        player = EVE if p % 2 == 0 else ADAM
        top = {v for v in alive if prio[v] == p}
        a = attractor(top, player, alive)
        w_eve, w_adam = win(alive - a)
        theirs = w_adam if player is EVE else w_eve
        if not theirs:
            return (alive, set()) if player is EVE else (set(), alive)
        b = attractor(theirs, ADAM if player is EVE else EVE, alive)
        w_eve2, w_adam2 = win(alive - b)
        if player is EVE:
            return w_eve2, w_adam2 | b
        return w_eve2 | b, w_adam2

    w_eve, _ = win(set(range(len(owner))))
    return frozenset(v for v in range(n0) if v in w_eve)


# ---------------------------------------------------------------------------
# Ordered trees with all leaves at a fixed depth
# ---------------------------------------------------------------------------


def compositions(total: int):
    """Ordered tuples of positive integers summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def ordered_trees(leaves: int, height: int):
    """All ordered trees (nested tuples, () = leaf) with exactly ``leaves``
    leaves, all at depth ``height``."""
    if height == 0:
        return [()] if leaves == 1 else []
    result = []
    for parts in compositions(leaves):
        for combo in itertools.product(*[ordered_trees(p, height - 1) for p in parts]):
            result.append(tuple(combo))
    return result


def tree_embeds(t, u, height: int) -> bool:
    """Order- and depth-preserving embedding of nested-tuple trees."""
    if height == 0:
        return True

    def match(i: int, j: int) -> bool:
        if i == len(t):
            return True
        if j == len(u):
            return False
        if tree_embeds(t[i], u[j], height - 1) and match(i + 1, j + 1):
            return True
        return match(i, j + 1)

    return match(0, 0)


def universal_tree_as_nested(tree):
    """Nested-tuple view of a UniversalTree, read off its per-level node
    starts: a node's children are the nodes one level down that start
    inside its leaves."""

    def node(level, first, end):
        if level == 0:
            return ()
        bounds = [s for s in tree.levels[level - 1] if first <= s < end] + [end]
        return tuple(node(level - 1, a, b) for a, b in zip(bounds, bounds[1:]))

    return node(tree.height, 0, tree.leaf_count) if tree.leaf_count else None


def universal_tree_nested(n: int, h: int):
    """The halving construction on nested tuples (() = leaf), None when
    empty: the root's children are those of the tree for n // 2, the tree
    for height h - 1, then those of the tree for n - 1 - n // 2."""
    if n <= 0:
        return None
    if h == 0:
        return ()
    left = universal_tree_nested(n // 2, h) if n // 2 else ()
    right = universal_tree_nested(n - 1 - n // 2, h) if n - 1 - n // 2 else ()
    return left + (universal_tree_nested(n, h - 1),) + right


def nested_span_table(u, height: int):
    """For each leaf of a nested tree, left to right, the (first leaf, leaf
    count) of its ancestors at levels 0..height."""

    def walk(node, level, first):
        if level == 0:
            return [[(first, 1)]]
        rows = []
        for child in node:
            rows += walk(child, level - 1, first + len(rows))
        return [row + [(first, len(rows))] for row in rows]

    return walk(u, height, 0) if u is not None else []


# ---------------------------------------------------------------------------
# Sequence embedding by dynamic programming (independent of the greedy path)
# ---------------------------------------------------------------------------


def embeds_dp(v, u) -> bool:
    if not v:
        return True
    # best[i] = smallest index j such that v[:i] embeds into u[:j]
    best = 0
    for x in v:
        j = best
        while j < len(u) and u[j] < x:
            j += 1
        if j == len(u):
            return False
        best = j + 1
    return True


def embeds_bruteforce(v, u) -> bool:
    for positions in itertools.combinations(range(len(u)), len(v)):
        if all(v[i] <= u[j] for i, j in zip(range(len(v)), positions)):
            return True
    return False


# ---------------------------------------------------------------------------
# Random lassos
# ---------------------------------------------------------------------------


def sample_lasso(rng: random.Random, graph: Graph, start: int, limit: int = 200):
    """Random walk until a vertex repeats; returns (stem_vs, stem_cs,
    cycle_vs, cycle_cs) or None if the walk dies in a sink."""
    v = start
    vs, cs = [v], []
    seen = {v: 0}
    for _ in range(limit):
        succs = graph.successors[v]
        if not succs:
            return None
        c, w = succs[rng.randrange(len(succs))]
        cs.append(c)
        vs.append(w)
        if w in seen:
            k = seen[w]
            return vs[: k + 1], cs[:k], vs[k:], cs[k:]
        seen[w] = len(vs) - 1
        v = w
    return None
