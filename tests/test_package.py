"""The names the package exports, and what importing it starts."""

import os
import subprocess
import sys
from pathlib import Path

import netrobust

# Everything `from netrobust import *` hands out. Pinned so that the export
# list can be derived or dropped without a name silently leaving or joining.
STAR_EXPORTS = {
    "Assignment", "CascadeState", "CnfFormula", "ConsensusConfig", "ConsensusTrace",
    "Constant", "GadgetGraph", "GeometricPlacement", "Graph", "Ramp",
    "ResourceGuardError", "RngSeed", "Role", "SweepRecord", "SweepSpec", "TriPartition",
    "UniformRandom", "assignment_from_cut", "build_g_phi", "build_g_rho_phi",
    "build_h_phi", "build_h_rho_phi", "cascade_step", "cascade_trace",
    "check_subsets_reachable", "complete", "connectivity_at_least",
    "contagion_from_any_m", "counterexample", "cut_from_assignment", "cycle",
    "enumerate_nae3sat", "find_degree_cut", "find_relaxed_degree_cut",
    "gen_erdos_renyi", "gen_geometric", "gen_preferential", "graph_from_placement",
    "half_crossing", "is_connected", "is_r_reachable", "is_r_robust", "min_degree",
    "nae3sat_satisfiable", "nae_check", "naive_is_r_robust", "path", "reach_index",
    "read_records", "rng_for", "robustness", "run_ba_trials", "run_cascade",
    "run_consensus", "run_er_sweep", "run_geometric_sweep", "threshold_p",
    "validate_f_local", "verify_cut", "vertex_connectivity", "with_added_node",
    "wmsr_filter", "wmsr_round", "write_records"
}


def test_star_import_exports_exactly_the_pinned_names():
    namespace = {}
    exec("from netrobust import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == STAR_EXPORTS
    assert all(namespace[name] is getattr(netrobust, name) for name in STAR_EXPORTS)


def test_importing_the_package_starts_no_thread():
    # the G(n, p) draw's helper thread starts on the first split draw, not before
    script = (
        "import threading\n"
        "import netrobust, netrobust.cli\n"
        "print([t.name for t in threading.enumerate()])\n"
    )
    src = str(Path(netrobust.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['MainThread']"
