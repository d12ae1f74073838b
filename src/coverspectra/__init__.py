"""Spectra of finite multigraphs against their universal cover trees.

The package computes, certifies, and compares three spectral quantities:
the adjacency top eigenvalue of a finite connected multigraph G, the
spectral radius of its universal cover tree, and the fraction of G's
eigenvalues lying within the cover's radius. Around these sit exact walk
counting on the cover, gap certificates on its quotient, local ball
statistics, and generators for graph families sharing a common cover.
"""

from .cover import (
    OrbitClass,
    OrbitDistribution,
    backtracking_walk_profile,
    orbit_distribution,
)
from .gapcert import (
    CertificationError,
    GapCertificate,
    certify_gap,
    unicyclic_defect,
)
from .generators import (
    biregular,
    bowtie,
    canonical_key,
    complete,
    cycle,
    make,
    path,
    random_lift,
    random_regular,
    small_connected_multigraphs,
    star,
    theta,
    two_cycles_glued,
)
from .localstats import (
    Cycle,
    CycleStats,
    MassTransportReport,
    ball_code,
    bs_histogram,
    cycle_stats,
    enumerate_cycles,
    find_bouquet,
    mass_transport_check,
    tree_fraction,
    tv_distance,
)
from .multigraph import (
    CyclomaticClass,
    GraphParseError,
    MultiGraph,
    ball,
    cyclomatic_class,
    dump_graph,
    induced_subgraph,
    load_graph,
    require_connected,
)
from .rho import (
    RhoResult,
    rho_ball_power,
    rho_lower_sequence,
    rho_tree,
)
from .spectra import (
    Spectrum,
    closed_walk_profile,
    eigen_spectrum,
    wr_fraction,
)
from .twocore import CoreDecomposition, two_core

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "CoreDecomposition",
    "Cycle",
    "CycleStats",
    "CyclomaticClass",
    "GapCertificate",
    "GraphParseError",
    "MassTransportReport",
    "MultiGraph",
    "OrbitClass",
    "OrbitDistribution",
    "RhoResult",
    "Spectrum",
    "backtracking_walk_profile",
    "ball",
    "ball_code",
    "biregular",
    "bowtie",
    "bs_histogram",
    "canonical_key",
    "certify_gap",
    "closed_walk_profile",
    "complete",
    "cycle",
    "cycle_stats",
    "cyclomatic_class",
    "dump_graph",
    "eigen_spectrum",
    "enumerate_cycles",
    "find_bouquet",
    "induced_subgraph",
    "load_graph",
    "make",
    "mass_transport_check",
    "orbit_distribution",
    "path",
    "random_lift",
    "random_regular",
    "require_connected",
    "rho_ball_power",
    "rho_lower_sequence",
    "rho_tree",
    "small_connected_multigraphs",
    "star",
    "theta",
    "tree_fraction",
    "tv_distance",
    "two_core",
    "two_cycles_glued",
    "unicyclic_defect",
    "wr_fraction",
]
