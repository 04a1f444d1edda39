"""Row kernels against the scalar ``delta``, entry by entry.

Every library separator evaluates its transitions two ways: ``delta`` one
(state, color) at a time, and ``row_kernel`` for whole arrays of states.
The kernel must agree with ``delta`` on every state and every color, with
-1 where ``delta`` is undefined.
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
from sepgames.automaton import _is_monotone, _ranked, _transition_table


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
    assert np.array_equal(rows(every), _scalar_table(aut, colors, every))
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
    for initial_priority in (0, d):
        aut = parity_mp_separator(
            parity_separator(n, d), mp_separator(n, N), initial_priority=initial_priority
        )
        _assert_kernel_is_delta(aut)


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


def test_parity_kernel_table_is_built_on_first_call_only(monkeypatch):
    # the leaf table is a cost of the flat path, never of construction
    from sepgames.separators import UniversalTree

    calls = []
    span_table = UniversalTree.span_table
    monkeypatch.setattr(UniversalTree, "span_table", lambda t: calls.append(t) or span_table(t))
    aut = parity_separator(40, 8)
    assert calls == []
    aut.row_kernel([0, 3])
    aut.row_kernel([8])
    assert len(calls) == 1


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
