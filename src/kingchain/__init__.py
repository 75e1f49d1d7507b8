"""Chains of cycles around a king vertex in strong tournaments.

Construction lives in `chain`, structural queries in `analysis`, Hamiltonian
building blocks in `hamilton`, and the independent brute-force checker and
harnesses in `oracle`.
"""

from .analysis import (
    KingContext,
    condensation,
    is_king,
    is_strong,
    king_context,
    kings,
)
from .chain import (
    CycleChain,
    ExitEdge,
    Insertion,
    build_chain,
    dumps_certificate,
    find_exit_edge,
    loads_certificate,
)
from .core import (
    Tournament,
    enumerate_all,
    export,
    from_edge_list,
    parse_text,
    random_strong_tournament,
    random_tournament,
)
from .hamilton import path_ending_at
from .oracle import (
    ExhaustiveSummary,
    StressSummary,
    VerificationReport,
    exhaustive_check,
    random_stress,
    verify_chain,
)

__all__ = [
    "CycleChain",
    "ExhaustiveSummary",
    "ExitEdge",
    "Insertion",
    "KingContext",
    "StressSummary",
    "Tournament",
    "VerificationReport",
    "build_chain",
    "condensation",
    "dumps_certificate",
    "enumerate_all",
    "exhaustive_check",
    "export",
    "find_exit_edge",
    "from_edge_list",
    "is_king",
    "is_strong",
    "king_context",
    "kings",
    "loads_certificate",
    "parse_text",
    "path_ending_at",
    "random_stress",
    "random_strong_tournament",
    "random_tournament",
    "verify_chain",
]

__version__ = "0.1.0"
