"""Exact-arithmetic laboratory for graph and 3-graph regularity decompositions.

Layers, bottom up:

- ``core``: bitset graphs, partite 3-graphs, chains, exact densities,
  text formats.
- ``quasirandom``: 4-cycle and octahedral deviation certificates, fast
  kernels with naive oracles.
- ``partitions``: pair/edge/cylinder partitions, mean-squared-density
  index, Venn diagrams, audits.
- ``engines``: iterated refinement drivers (cylinder, pair, hyper),
  homogeneous decompositions, subset extraction, tower schedules.
- ``generators``: deterministic instance families and a seeded PRNG.
- ``vcdim``: shattering dimensions of neighbourhood set systems.
- ``oracles``: the oracle registry, every fast path beside the naive
  oracle it must match; ``oracle-check`` imports it, nothing here does.
- ``cli``: the ``regulab`` command.
"""

from .core import (
    BipartiteGraph,
    CapacityError,
    Chain,
    ContainmentError,
    DensityUndefined,
    Graph,
    InvalidStructure,
    InvariantViolation,
    MultipartiteGraph,
    ParseError,
    PartiteThreeGraph,
    PartiteVertexSet,
    Scan,
    ThreeGraph,
    load_chain,
    load_graph,
    load_multipartite,
    load_partite_3graph,
    load_three_graph,
    ratio,
    relative_density,
    save_chain,
    save_graph,
    save_multipartite,
    save_partite_3graph,
    save_three_graph,
    scan,
    triangle_count,
)
from .quasirandom import (
    PolyFunction,
    QuasirandomnessCertificate,
    chain_quasirandomness,
    eta_psi_check,
    graph_quasirandomness,
    is_graph_quasirandom,
    pair_quasirandomness,
)
from .partitions import (
    ChainPartition,
    CylinderChainPartition,
    EdgePartition,
    PairPartition,
    VertexCylinder,
    VertexCylinderPartition,
    cylinder_quasirandomness_audit,
    homogeneity_audit,
    q_edge_partition,
    q_partition,
    venn_diagram,
)
from .engines import (
    ConstantsProfile,
    IterationTrace,
    NonterminationError,
    RefinementFailure,
    ScheduleSaturation,
    SearchFailure,
    dlr_cylinder_regularity,
    fps_packing_partition,
    graph_homogeneous_decomposition,
    homogeneous_decomposition,
    hyper_cylinder_regularity,
    one_cylinder_refine,
    paper_schedule,
    quasirandom_subset,
    rodl_sparse_dense,
    szemeredi_multi,
    twr,
)
from .generators import (
    SplitMix64,
    cone_hypergraph,
    half_graph,
    make_fd,
    make_vd,
    random_chain,
    random_graph,
    random_partite_3graph,
    random_tournament_3graph,
)
from .vcdim import induced_copy_search, neighborhood_system, vc2_dimension, vc_dimension

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
