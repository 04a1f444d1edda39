"""
Combining parity and mean payoff
================================

For the objective "parity holds OR mean payoff holds", the two atomic
automata are combined as black boxes: simulate the counter, remember the
largest priority seen since the last reset, and when the counter rejects,
let the parity automaton read that one priority while the counter restarts.
The combination rejects only if the parity automaton rejects during a reset.
"""

from sepgames import (
    ADAM,
    EVE,
    Game,
    Graph,
    ParityOrMeanPayoff,
    eve_winning_region_bruteforce,
    graph_satisfies_parity_or_mp,
    mp_separator,
    parity_mp_separator,
    parity_separator,
    reachable_graph,
    separating_winning_region,
)

d, big_n, n = 2, 1, 2
aut = parity_mp_separator(parity_separator(n, d), mp_separator(n, big_n))
print("combined automaton states:", aut.state_count, "=",
      f"(d+1) * |parity| * |counter| = {d + 1} * {parity_separator(n, d).state_count}"
      f" * {mp_separator(n, big_n).state_count}")

# Follow a run: letters are (priority, weight) pairs.  The counter holds 1,
# absorbs one -1, and the next -1 forces a reset that feeds the remembered
# priority to the parity automaton.
nmp = mp_separator(n, big_n).state_count
np_ = parity_separator(n, d).state_count


def show(s):
    rest, qmp = divmod(s, nmp)
    p, qp = divmod(rest, np_)
    return f"(max priority {p}, tree leaf {qp}, counter {qmp})"


state = aut.initial
print("start:      ", show(state))
for letter in [(1, -1), (0, -1), (2, 0)]:
    state = aut.delta(state, letter)
    print(f"after {letter}:", show(state))

# Soundness, phrased on the automaton's own transition graph: no cycle may
# violate parity and mean payoff at once.
print("automaton graph sound?", graph_satisfies_parity_or_mp(reachable_graph(aut)))

# A game where Adam picks between an odd profitable loop and an even
# draining loop: each loop satisfies one half of the disjunction, so Adam
# has no good deviation anywhere.
game = Game(
    Graph(3, [(0, (0, 0), 1), (0, (0, 0), 2), (1, (1, 1), 1), (2, (2, -1), 2)]),
    (ADAM, EVE, EVE),
    ParityOrMeanPayoff(2, 1),
)
aut3 = parity_mp_separator(parity_separator(3, 2), mp_separator(3, 1))
print("separating region:", sorted(separating_winning_region(game, aut3)))
print("brute-force region:", sorted(eve_winning_region_bruteforce(game)))
