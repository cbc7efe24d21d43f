"""Bounds and feasible solutions for the maximum k-colorable subgraph
problem: a first-order SDP bound solver with cutting planes, an integer
variant producing verified colorings, exact desk-scale oracles, and a
CLI tying them together."""

from .cpadmm import (
    AdmmParams,
    CpAdmmResult,
    cp_admm,
    greedy_lower_bound,
    inner_admm,
    initial_state,
    valid_upper_bound,
)
from .cuts import CutFamily, CutPool, SeparationReport, cluster_cuts, select_cuts
from .graph import (
    DimacsError,
    Graph,
    complement,
    enumerate_5holes,
    enumerate_cliques,
    parse_dimacs,
    write_dimacs,
)
from .intadmm import Coloring, IntAdmmParams, IntAdmmResult, int_admm, round_and_verify
from .linalg import FreeIndexMap, project_nsd, project_psd
from .oracle import alpha_k_exact, chi_exact, enumerate_Dnk
from .projection import dykstra, project_affine_set, project_box

__all__ = [
    "AdmmParams",
    "Coloring",
    "CpAdmmResult",
    "CutFamily",
    "CutPool",
    "DimacsError",
    "FreeIndexMap",
    "Graph",
    "IntAdmmParams",
    "IntAdmmResult",
    "SeparationReport",
    "alpha_k_exact",
    "chi_exact",
    "cluster_cuts",
    "complement",
    "cp_admm",
    "dykstra",
    "enumerate_5holes",
    "enumerate_Dnk",
    "enumerate_cliques",
    "greedy_lower_bound",
    "inner_admm",
    "initial_state",
    "int_admm",
    "parse_dimacs",
    "project_affine_set",
    "project_box",
    "project_nsd",
    "project_psd",
    "round_and_verify",
    "select_cuts",
    "valid_upper_bound",
    "write_dimacs",
]

__version__ = "0.1.0"
