"""Graph substrate: CSR storage, builders, generators, datasets, partitioning.

The public surface re-exported here is what the engines and tasks consume:

* :class:`Graph` — immutable CSR adjacency (``indptr`` / ``indices``),
  directed or undirected, without edge weights.
* :func:`from_edges` / :func:`from_edge_list` — builders.
* :mod:`repro.graph.generators` — synthetic generators (power law, ER, ...).
* :mod:`repro.graph.datasets` — the six paper dataset profiles.
* :mod:`repro.graph.partition` — hash/range/edge partitioners.
* :mod:`repro.graph.mirrors` — mirroring plans for Pregel+(mirror).
"""

from repro.graph.build import from_edge_list, from_edges
from repro.graph.csr import Graph
from repro.graph.datasets import DatasetProfile, PAPER_DATASETS, load_dataset
from repro.graph.mirrors import MirrorPlan, build_mirror_plan
from repro.graph.partition import Partition, partition_graph

__all__ = [
    "Graph",
    "from_edges",
    "from_edge_list",
    "DatasetProfile",
    "PAPER_DATASETS",
    "load_dataset",
    "Partition",
    "partition_graph",
    "MirrorPlan",
    "build_mirror_plan",
]
