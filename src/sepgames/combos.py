"""Separating automata for the combined objectives.

Two assemblies, both treating the atomic automata as black boxes:

* parity-or-mean-payoff: simulate the mean-payoff counter while remembering
  the largest priority seen since the last reset; when the counter rejects,
  feed that priority to the parity automaton and restart the counter.  The
  whole thing rejects only when the parity automaton rejects during a reset.
  The accumulator and the counter form a key automaton that moves on its
  own, and the parity automaton moves only on a reset, so the separator
  keeps both parts and is solved as a cascade: the game's product with the
  keys, then value iteration over the parity automaton's leaves.

* disjunction of mean payoffs: a component automaton good for strongly
  connected graphs (one bounded counter per weight component, chained) is
  instantiated at every entry of a universal size sequence and chained again;
  a run crosses to the next copy each time the current one rejects, and the
  universal sequence guarantees some copy is large enough for each strongly
  connected component the play traverses.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .automaton import SafetyAutomaton, sequential_fold
from .core import (
    AlphabetMismatchError,
    InvalidGameError,
    MeanPayoff,
    MeanPayoffDisjunction,
    Parity,
    ParityOrMeanPayoff,
)
from .separators import mp_separator

__all__ = [
    "parity_mp_separator",
    "naive_general_separator",
    "universal_sequence",
    "universal_sequence_size",
    "universal_sequence_constant",
    "embeds",
    "disjmp_scc_separator",
    "disjmp_separator",
    "disjmp_state_count",
]


def parity_mp_separator(parity_aut: SafetyAutomaton, mp_aut: SafetyAutomaton) -> SafetyAutomaton:
    """Product automaton for the disjunction of parity and mean payoff.

    States are (accumulated priority, parity state, counter state); on letter
    (p, w) the accumulator becomes max of itself and p, then the counter reads
    w; if the counter rejects, the parity automaton reads the accumulated
    priority once, the accumulator clears and the counter restarts (the
    letter's weight is discarded by the reset).  Undefined only when the
    parity automaton rejects during such a reset.

    The accumulator starts at 0 so that the first reset feeds exactly the
    maximum priority seen so far, matching how runs decompose.

    The row kernel is composed from the two automata's row kernels the same
    way, and exists only if both have one.  The two automata are kept as
    the result's ``cascade``: the accumulator and the counter move whatever
    the parity state is, so the solver reads the parts instead of the
    product's table (``automaton._solve_cascade``).
    """
    if not isinstance(parity_aut.alphabet, Parity):
        raise AlphabetMismatchError(f"expected a priority alphabet, got {parity_aut.alphabet!r}")
    if not isinstance(mp_aut.alphabet, MeanPayoff):
        raise AlphabetMismatchError(f"expected a weight alphabet, got {mp_aut.alphabet!r}")
    max_priority = parity_aut.alphabet.max_priority
    weight_bound = mp_aut.alphabet.weight_bound
    np_, nmp = parity_aut.state_count, mp_aut.state_count
    dp, dmp = parity_aut.delta, mp_aut.delta
    mp_init = mp_aut.initial

    def delta(s: int, c) -> Optional[int]:
        p2, w = c
        rest, qmp = divmod(s, nmp)
        p, qp = divmod(rest, np_)
        m = p2 if p2 > p else p
        t = dmp(qmp, w)
        if t is not None:
            return (m * np_ + qp) * nmp + t
        tp = dp(qp, m)
        if tp is not None:
            return tp * nmp + mp_init
        return None

    def state_label(s: int) -> str:
        rest, qmp = divmod(s, nmp)
        p, qp = divmod(rest, np_)
        return f"{p}|{parity_aut.label(qp)}|{mp_aut.label(qmp)}"

    def row_kernel(colors):
        letters = np.asarray(colors, dtype=np.int64).reshape(-1, 2)
        priorities = letters[:, 0]
        parity_rows = parity_aut.row_kernel(range(max_priority + 1))
        mp_rows = mp_aut.row_kernel(letters[:, 1].tolist())

        def rows(states):
            rest, qmp = np.divmod(np.asarray(states, dtype=np.int64), nmp)
            p, qp = np.divmod(rest, np_)
            m = np.maximum(p[:, None], priorities)
            t = mp_rows(qmp)
            tp = np.take_along_axis(parity_rows(qp), m, axis=1)
            reset = np.where(tp >= 0, tp * nmp + mp_init, -1)
            return np.where(t >= 0, (m * np_ + qp[:, None]) * nmp + t, reset)

        return rows

    return SafetyAutomaton(
        state_count=(max_priority + 1) * np_ * nmp,
        initial=parity_aut.initial * nmp + mp_init,  # accumulator 0
        alphabet=ParityOrMeanPayoff(max_priority, weight_bound),
        delta=delta,
        state_label=state_label,
        row_kernel=row_kernel if parity_aut.row_kernel and mp_aut.row_kernel else None,
        cascade=(parity_aut, mp_aut),
    )


def naive_general_separator(aut: SafetyAutomaton, n: int) -> SafetyAutomaton:
    """Chain of ``n`` copies: lifts an automaton separating for strongly
    connected graphs to one separating for arbitrary graphs of size <= n
    (a play crosses at most n strongly connected components)."""
    if n < 1:
        raise ValueError("need n >= 1 copies")
    return sequential_fold([aut] * n)


# ---------------------------------------------------------------------------
# Universal sequences
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def universal_sequence(n: int) -> tuple:
    """The halving sequence: u_0 = (), u_1 = (1), and u_n is u_{n//2} then
    (n) then u_{n-1-n//2}.  Every sequence of total size <= n embeds into it
    and its total size is O(n log n)."""
    if n < 0:
        raise InvalidGameError("universal sequences are defined for n >= 0")
    if n == 0:
        return ()
    if n == 1:
        return (1,)
    return universal_sequence(n // 2) + (n,) + universal_sequence(n - 1 - n // 2)


def universal_sequence_size(n: int) -> int:
    return sum(universal_sequence(n))


def universal_sequence_constant(limit: int = 256) -> float:
    """Smallest c such that size(u_n) <= c * n * log2(n+1) for all n up to
    ``limit`` (the maximum ratio, attained at n = 1)."""
    return max(
        universal_sequence_size(n) / (n * math.log2(n + 1)) for n in range(1, limit + 1)
    )


def embeds(v, u) -> bool:
    """Does ``v`` embed into ``u``: an increasing map of positions with
    v_i <= u_{f(i)}?  Greedy first fit is optimal for this order: matching
    each v_i to the leftmost usable slot never blocks a later element that a
    different choice would have allowed."""
    j = 0
    for x in v:
        while j < len(u) and u[j] < x:
            j += 1
        if j == len(u):
            return False
        j += 1
    return True


# ---------------------------------------------------------------------------
# Disjunction of mean payoffs
# ---------------------------------------------------------------------------


def _component_counter(base: SafetyAutomaton, dimensions: int, component: int) -> SafetyAutomaton:
    """The bounded counter ``base`` reading only one component of the
    weight vectors."""
    weight_bound = base.alphabet.weight_bound
    low = -weight_bound

    def delta(q: int, vec) -> Optional[int]:
        return base.delta(q, vec[component])

    def outgoing(q: int):
        # weight-minimal representatives: one edge per distinct counter move,
        # other components pinned at the lowest weight
        result = []
        seen = set()
        for w in range(-weight_bound, weight_bound + 1):
            t = base.delta(q, w)
            if t in seen:
                continue
            seen.add(t)
            vec = [low] * dimensions
            vec[component] = w
            result.append((tuple(vec), t))
        return result

    return SafetyAutomaton(
        state_count=base.state_count,
        initial=base.initial,
        alphabet=MeanPayoffDisjunction(dimensions, weight_bound),
        delta=delta,
        outgoing=outgoing,
        state_label=lambda q: f"c{component}={q}",
        row_kernel=lambda colors: base.row_kernel([c[component] for c in colors]),
        rank=base.rank,
        pre_kernel=lambda colors: base.pre_kernel([c[component] for c in colors]),
    )


def disjmp_scc_separator(k: int, dimensions: int, weight_bound: int) -> SafetyAutomaton:
    """Separator for strongly connected graphs with <= k vertices under a
    disjunction of mean payoffs: one counter per component, chained.

    A strongly connected graph satisfying the disjunction satisfies plain
    mean payoff in some single component, so whichever counter reads that
    component never rejects once reached; earlier counters are merely
    traversed, and prefix independence absorbs the traversal.
    """
    if dimensions < 1:
        raise InvalidGameError("need at least one weight component")
    base = mp_separator(k, weight_bound)
    copies = [_component_counter(base, dimensions, i) for i in range(dimensions)]
    return sequential_fold(copies)


def disjmp_separator(n: int, dimensions: int, weight_bound: int) -> SafetyAutomaton:
    """Separator for arbitrary graphs with <= n vertices: one strongly
    connected separator per entry of the universal sequence u_n, chained.
    The sequence of strongly connected component sizes along any play embeds
    into u_n, so each component meets a copy large enough for it."""
    if n < 1:
        raise InvalidGameError("need n >= 1")
    # sizes repeat along u_n; each distinct one is built once
    sizes = universal_sequence(n)
    sccs = {x: disjmp_scc_separator(x, dimensions, weight_bound) for x in set(sizes)}
    return sequential_fold([sccs[x] for x in sizes])


def disjmp_state_count(n: int, dimensions: int, weight_bound: int) -> int:
    """Closed form: sum over x in u_n of d * ((x-1) * N + 1)."""
    return sum(dimensions * ((x - 1) * weight_bound + 1) for x in universal_sequence(n))
