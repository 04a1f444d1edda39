"""
Disjunctions of mean payoffs and the universal sequence
=======================================================

For "some weight component has nonnegative mean payoff", a separator good
for strongly connected graphs is easy: chain one counter per component.
Lifting it to arbitrary graphs would naively cost a factor n (one copy per
strongly connected component a play might traverse); a universal sequence
brings that down to O(n log n): instantiate the component separator at the
sizes u_n = (x_1, ..., x_n), and any actual sequence of component sizes
embeds into it.
"""

import math
import time

from sepgames import (
    MeanPayoffDisjunction,
    accepts_all_paths,
    disjmp_scc_separator,
    disjmp_separator,
    disjmp_state_count,
    embeds,
    generate_game,
    graph_satisfies_disjmp,
    run,
    solve_via_separating,
    universal_sequence,
    universal_sequence_constant,
    universal_sequence_size,
)

# The halving sequence and its guarantee.
for n in (2, 3, 4, 5, 6):
    print(f"u_{n} =", universal_sequence(n))
print("(5,2,3,3) embeds into (4,6,1,2,4,1,3)?", embeds((5, 2, 3, 3), (4, 6, 1, 2, 4, 1, 3)))
print("(5,2,3,3) embeds into (3,2,5,3,3)?  ", embeds((5, 2, 3, 3), (3, 2, 5, 3, 3)))
print("size of u_64:", universal_sequence_size(64), "vs 64*log2(65) =",
      round(64 * math.log2(65), 1))

# Component separator: one counter per dimension, chained.  On letters
# (-1, 0) the first counter drains and the run settles in the second copy.
scc_sep = disjmp_scc_separator(2, 2, 1)
print("scc separator survives (-1,0)^8?", run(scc_sep, [(-1, 0)] * 8) is not None)

# Full separator: component separators at the sizes of u_n, chained.
aut = disjmp_separator(8, 2, 1)
print("full separator states:", aut.state_count, "=", disjmp_state_count(8, 2, 1))
print("state bound constant c =", universal_sequence_constant())

# It accepts all paths of a graph whose components are each safe somewhere.
from sepgames import Graph

g = Graph(3, [(0, (-1, 0), 0), (0, (1, 1), 1), (1, (0, -1), 2), (2, (0, -1), 1)])
print("graph satisfies the disjunction?", graph_satisfies_disjmp(g))
print("separator accepts all its paths?", accepts_all_paths(aut, g))

# Scaling: the counters rank from the top down and the chain block by block,
# so the transition table is monotone in that order and value iteration
# solves games far beyond desk scale without building the product.  (Times
# are wall clock, single run.)
print()
print("n\tstates\tms")
for n in (50, 100, 200):
    obj = MeanPayoffDisjunction(2, 2)
    game = generate_game(n, 4, 4, obj, seed=1000 + n)
    aut = disjmp_separator(n, 2, 2)
    t0 = time.perf_counter()
    solve_via_separating(game, 0, aut)
    print(f"{n}\t{aut.state_count}\t{(time.perf_counter() - t0) * 1000:.0f}")
