"""Max flow in clique-sum decomposed directed networks.

Exact s-t max flow for networks decomposed as clique-sums of planar and
small components (the K3,3- and K5-minor-free families), by iteratively
replacing components with tiny cut-equivalent mimicking networks and
replaying the replacements to recover a full flow.
"""

from .network import (
    FULL,
    SINGLE_SOURCE,
    CutTable,
    Edge,
    FlowError,
    FlowNetwork,
    InfeasibleDemandError,
    MimicInputError,
    TerminalSet,
    UnknownVertexError,
    merge_networks,
)
from .maxflow import max_flow, min_cut_side, min_cut_value
from .external import (
    CutCertificate,
    VerifyResult,
    certify_max_flow,
    check_external_realizable,
    cut_table,
    route_external_flow,
    verify_flow,
)
from .mimic import (
    build_full_mimic,
    build_mimic3,
    build_mimic4_single_source,
    build_mimic_general,
    check_four_way,
    check_three_way,
    merge_mimics,
)
from .decomposition import (
    DecompositionTree,
    InvalidDecomposition,
    NotK33MinorFree,
    NotK5MinorFree,
    biconnected_split,
    decompose_k33_free,
    decompose_k5_free,
    refine,
    single_component_tree,
    validate,
)
from .solver import (
    ReplacementRecord,
    locate_terminal_path,
    max_flow_decomposed,
    max_flow_family,
)
from .spqr import SpqrTree, check_spqr_axioms, spqr
from .planar import PlanarEmbedding, planar_embed

__all__ = [
    "FULL",
    "SINGLE_SOURCE",
    "CutTable",
    "CutCertificate",
    "DecompositionTree",
    "Edge",
    "FlowError",
    "FlowNetwork",
    "InfeasibleDemandError",
    "InvalidDecomposition",
    "MimicInputError",
    "NotK33MinorFree",
    "NotK5MinorFree",
    "PlanarEmbedding",
    "ReplacementRecord",
    "SpqrTree",
    "TerminalSet",
    "UnknownVertexError",
    "VerifyResult",
    "biconnected_split",
    "build_full_mimic",
    "build_mimic3",
    "build_mimic4_single_source",
    "build_mimic_general",
    "certify_max_flow",
    "check_external_realizable",
    "check_four_way",
    "check_spqr_axioms",
    "check_three_way",
    "cut_table",
    "decompose_k33_free",
    "decompose_k5_free",
    "locate_terminal_path",
    "max_flow",
    "max_flow_decomposed",
    "max_flow_family",
    "merge_mimics",
    "merge_networks",
    "min_cut_side",
    "min_cut_value",
    "planar_embed",
    "refine",
    "route_external_flow",
    "single_component_tree",
    "spqr",
    "validate",
    "verify_flow",
]
