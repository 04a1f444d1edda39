"""Row kernels against the scalar ``delta``, entry by entry.

Every library separator evaluates its transitions two ways: ``delta`` one
(state, color) at a time, and ``row_kernel`` for whole arrays of states.
The kernel must agree with ``delta`` on every state and every color, with
-1 where ``delta`` is undefined; the solvers' transition table holds the
same entries, with ``state_count`` (the losing sink) in place of -1.
"""

import random

import numpy as np
import pytest

from sepgames import (
    disjmp_scc_separator,
    disjmp_separator,
    mp_separator,
    naive_general_separator,
    parity_mp_separator,
    parity_separator,
)
from sepgames.automaton import _is_monotone, _pre_table, _ranked, _transition_table


def _scalar_table(aut, colors, states):
    return np.array(
        [[-1 if (t := aut.delta(q, c)) is None else t for c in colors] for q in states],
        dtype=np.int64,
    ).reshape(len(states), len(colors))


def _assert_kernel_is_delta(aut):
    assert aut.row_kernel is not None
    colors = list(aut.alphabet.colors())
    rows = aut.row_kernel(colors)
    every = np.arange(aut.state_count)
    kernel = rows(every)
    assert np.array_equal(kernel, _scalar_table(aut, colors, every))
    table = _transition_table(aut, colors)
    assert np.array_equal(table, np.where(kernel < 0, aut.state_count, kernel))
    # arbitrary order with repeats, and a subset of the colors
    rng = random.Random(aut.state_count)
    shuffled = np.array([rng.randrange(aut.state_count) for _ in range(2 * aut.state_count)])
    subset = colors[::-2]
    assert np.array_equal(
        aut.row_kernel(subset)(shuffled), _scalar_table(aut, subset, shuffled.tolist())
    )


@pytest.mark.parametrize("d", [0, 1, 3, 8])
@pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
def test_parity_kernel_is_delta(n, d):
    _assert_kernel_is_delta(parity_separator(n, d))


@pytest.mark.parametrize("N", [0, 2])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_mp_kernel_is_delta(n, N):
    _assert_kernel_is_delta(mp_separator(n, N))


@pytest.mark.parametrize("d,N", [(0, 1), (1, 2), (2, 1), (3, 0), (3, 2), (4, 1)])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_parity_mp_kernel_is_delta(n, d, N):
    _assert_kernel_is_delta(parity_mp_separator(parity_separator(n, d), mp_separator(n, N)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 4, 6])
def test_disjmp_kernel_is_delta(n, d):
    _assert_kernel_is_delta(disjmp_separator(n, d, 1))


def test_naive_general_kernel_is_delta():
    _assert_kernel_is_delta(naive_general_separator(parity_separator(3, 3), 3))
    _assert_kernel_is_delta(naive_general_separator(mp_separator(4, 2), 4))
    pvmp = parity_mp_separator(parity_separator(2, 2), mp_separator(2, 1))
    _assert_kernel_is_delta(naive_general_separator(pvmp, 3))


@pytest.mark.parametrize("d", range(9))
@pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
def test_parity_delta_is_monotone_in_leaf_order(n, d):
    # the order value iteration relies on: each color's column of successors
    # never decreases, and undefined entries only fill a suffix of the leaves
    aut = parity_separator(n, d)
    table = _scalar_table(aut, list(aut.alphabet.colors()), range(aut.state_count))
    for column in table.T:
        undefined = column < 0
        assert undefined[np.argmax(undefined) :].all() or not undefined.any()
        assert (np.diff(column[~undefined]) >= 0).all()
    # and the solver's check, on the table its route fills, agrees
    assert _is_monotone(_transition_table(aut, list(aut.alphabet.colors())))


def test_pre_table_is_the_last_state_at_or_below_each_rank():
    # random monotone tables whose undefined entries (nq, the sink) fill a
    # suffix of each column, of every length from none to the whole column,
    # against pre(c, t) = max{q : table[q, c] <= t}, or -1
    rng = random.Random(745)
    shapes = [(1, 0), (3, 0), (1, 1), (1, 3)] + [(rng.randint(1, 40), rng.randint(1, 5)) for _ in range(60)]
    sinks = set()
    for nq, ncol in shapes:
        columns = []
        for _ in range(ncol):
            undefined = rng.choice((0, rng.randint(0, nq), nq))
            columns.append(sorted(rng.randrange(nq) for _ in range(nq - undefined)) + [nq] * undefined)
            sinks.add(min(undefined, 2))
        table = np.array(columns, dtype=np.int32).T.reshape(nq, ncol)
        assert _is_monotone(table)
        pre = _pre_table(table)
        assert pre.dtype == np.int32 and pre.size == ncol * (nq + 1)
        for i, column in enumerate(columns):
            for t in range(-1, nq):
                expected = max((q for q in range(nq) if column[q] <= t), default=-1)
                assert pre[i * (nq + 1) + t + 1] == expected
    assert sinks == {0, 1, 2}


def test_parity_tree_levels_are_built_on_first_query_only(monkeypatch):
    # the tree's arrays are a cost of the first query, never of construction
    from sepgames import separators

    calls = []
    node_starts = separators._node_starts
    monkeypatch.setattr(separators, "_node_starts", lambda n, h: calls.append((n, h)) or node_starts(n, h))
    assert parity_separator(10**6, 20).state_count == 5_119_738_089_749
    aut = parity_separator(40, 8)
    assert calls == []
    aut.row_kernel([0, 3])
    aut.row_kernel([8])
    aut.delta(0, 3)
    assert calls == [(40, 4)]


def test_parity_tree_query_caches_its_own_levels_only():
    # the halving recursion shares its subtrees within one build, and the
    # process keeps only the levels of the trees asked for, each built once
    from sepgames import separators, universal_tree

    before = separators._node_starts.cache_info().currsize
    levels = universal_tree(1234, 3).levels
    assert separators._node_starts.cache_info().currsize == before + 1
    again = universal_tree(1234, 3).levels
    assert all(a is b is c for a, b, c in zip(levels[1:], again[1:], separators._node_starts(1234, 3)))
    assert separators._node_starts.cache_info().currsize == before + 1


@pytest.mark.parametrize(
    "aut",
    [
        mp_separator(1, 2),
        mp_separator(2, 1),
        mp_separator(7, 3),
        disjmp_scc_separator(4, 1, 2),
        disjmp_scc_separator(5, 3, 1),
        disjmp_separator(6, 2, 2),
        disjmp_separator(9, 3, 1),
        naive_general_separator(mp_separator(4, 2), 4),
    ],
    ids=lambda aut: f"{type(aut.alphabet).__name__}-{aut.state_count}",
)
def test_counter_ranks_order_delta_monotonically(aut):
    # counters rank from the top down and chains block by block: the order
    # in which value iteration sees a monotone table
    assert aut.rank is not None
    assert sorted(aut.rank.tolist()) == list(range(aut.state_count))
    table = _transition_table(aut, list(aut.alphabet.colors()))
    assert _is_monotone(_ranked(table, aut.rank))
    if aut.state_count > 1:
        # in state order a negative weight leaves the low counters undefined
        assert not _is_monotone(table)


def test_parity_and_parity_mp_keep_state_order():
    assert parity_separator(5, 4).rank is None
    assert naive_general_separator(parity_separator(3, 3), 3).rank is None
    assert parity_mp_separator(parity_separator(3, 2), mp_separator(3, 1)).rank is None
