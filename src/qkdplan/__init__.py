"""Satellite QKD network planning toolkit.

Models decoy-state BB84 secret-key rates on free-space optical links,
represents the ground-station/satellite network as a graph of per-link
secret-key pools, and allocates keys between ground-station pairs with
multi-commodity flow linear programs (max-min demand and min-resource
objectives, greedily rounded to whole keys) plus a sequential
shortest-path baseline for comparison.
"""
from .decoy import (
    DEFAULT_PROTOCOL,
    BoundCollapseError,
    ChannelObservables,
    DecoyProtocolParams,
    DegenerateChannelError,
    SinglePhotonBounds,
    binary_entropy,
    forward_observables,
    gain_and_qber,
    secret_key_rate,
    single_photon_bounds,
)
from .linkbudget import (
    PRESETS,
    FsoLinkParams,
    LinkPerformance,
    NearFieldError,
    db_to_factor,
    diffraction_loss,
    factor_to_db,
    far_field_check,
    link_performance,
    preset_link,
    total_attenuation,
)
from .lp import LinearProgram, LpSolution, LpStatus, solve
from .netmodel import (
    Link,
    Node,
    NodeKind,
    QkdGraph,
    Request,
    Scenario,
    ScenarioError,
    accumulate_pools,
    load_scenario,
)
from .router import (
    Commodity,
    FlowSolution,
    VerificationReport,
    build_lp,
    greedy_round,
    gs_pairs,
    route_mmd,
    route_mr,
    route_sequential_dijkstra,
    solution_to_csv,
    solve_fractional,
    verify_solution,
)

__version__ = "0.1.0"
