"""Exact graph-robustness analysis, resilient dynamics, generators, and hardness gadgets."""

from types import ModuleType as _ModuleType

from .connectivity import connectivity_at_least, vertex_connectivity
from .dynamics import (
    CascadeState,
    ConsensusConfig,
    ConsensusTrace,
    Constant,
    Ramp,
    UniformRandom,
    cascade_step,
    cascade_trace,
    contagion_from_any_m,
    run_cascade,
    run_consensus,
    validate_f_local,
    wmsr_filter,
    wmsr_round,
)
from .errors import ResourceGuardError
from .experiments import (
    SweepRecord,
    SweepSpec,
    half_crossing,
    run_ba_trials,
    run_er_sweep,
    run_geometric_sweep,
    threshold_p,
)
from .generators import (
    GeometricPlacement,
    RngSeed,
    gen_erdos_renyi,
    gen_geometric,
    gen_preferential,
    graph_from_placement,
    rng_for,
)
from .graph import (
    Graph,
    complete,
    counterexample,
    cycle,
    is_connected,
    min_degree,
    path,
    with_added_node,
)
from .hardness import (
    Assignment,
    CnfFormula,
    GadgetGraph,
    Role,
    assignment_from_cut,
    build_g_phi,
    build_g_rho_phi,
    build_h_phi,
    build_h_rho_phi,
    cut_from_assignment,
    enumerate_nae3sat,
    nae3sat_satisfiable,
    nae_check,
    verify_cut,
)
from .io import read_records, write_records
from .robustness import (
    TriPartition,
    check_subsets_reachable,
    find_degree_cut,
    find_relaxed_degree_cut,
    is_r_reachable,
    is_r_robust,
    naive_is_r_robust,
    reach_index,
    robustness,
)

# The export list is the import block above: every public name but the submodules.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
