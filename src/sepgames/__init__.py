"""sepgames: separating automata for parity / mean-payoff objectives and
game solving via the reduction to safety games."""

from .automaton import (
    ChainedGame,
    SafetyAutomaton,
    accepts_all_paths,
    automaton_dot,
    chained_game,
    chained_game_dot,
    reachable_graph,
    reachable_state_count,
    run,
    separating_winning_region,
    sequential_fold,
    sequential_product,
    solve_via_separating,
)
from .combos import (
    disjmp_scc_separator,
    disjmp_separator,
    disjmp_state_count,
    embeds,
    naive_general_separator,
    parity_mp_separator,
    universal_sequence,
    universal_sequence_constant,
    universal_sequence_size,
)
from .core import (
    ADAM,
    EVE,
    AlphabetMismatchError,
    Game,
    Graph,
    GuardExceededError,
    InvalidGameError,
    Lasso,
    MeanPayoff,
    MeanPayoffDisjunction,
    Parity,
    ParityOrMeanPayoff,
    Path,
    Player,
    PositionalStrategy,
    Safety,
    SepgamesError,
    StrategyRestriction,
    find_negative_cycle,
    graph_satisfies_mp,
    graph_satisfies_parity,
    restrict_to_strategy,
    scc_decompose,
)
from .oracle import (
    eve_winning_region_bruteforce,
    eve_wins_bruteforce,
    graph_satisfies_disjmp,
    graph_satisfies_parity_or_mp,
    satisfies,
    violating_subset_exists,
)
from .safety import WinningRegion, adam_attractor, solve_safety
from .separators import (
    UniversalTree,
    mp_separator,
    parity_separator,
    parity_state_bound,
    separator_stats,
    universal_tree,
)

__version__ = "0.1.0"

# The text format and CLI names resolve on first use, so that importing the
# package does not import ``frontend``: ``python -m sepgames.frontend`` would
# otherwise find that module already imported and warn.
_FRONTEND_NAMES = frozenset(
    {"ParseError", "build_separator", "cli", "generate_game", "parse_game", "print_game"}
)


def __getattr__(name: str):
    if name in _FRONTEND_NAMES:
        from . import frontend

        return getattr(frontend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
