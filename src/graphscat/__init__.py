"""Hybrid scattering graph networks on sparse graphs.

Diffusion-wavelet band-pass channels combined with GCN-style low-pass
channels, concatenation or attention aggregation, a graph residual
convolution, a minimal reverse-mode trainer, and a constructive verification
suite for the underlying node-discriminability theory.
"""

from .graph import (
    LAZY_WALK,
    RENORM_ADJACENCY,
    SYM_NORM_ADJACENCY,
    Graph,
    OperatorKind,
    apply_operator,
    build_graph,
    read_edge_list,
    residual_diffusion,
    write_edge_list,
)
from .scattering import (
    ABS,
    IDENTITY,
    Nonlinearity,
    cascade,
)
from .spectral import (
    EigenDecomposition,
    eigendecompose,
    spectral_response,
    sym_normalized_laplacian,
)
from .theory import (
    DEGREE,
    IntrinsicFeatureKind,
    NodeMap,
    avg_degree,
    check_coincidental_correspondence,
    homophily,
    intrinsic_features,
    structural_differences,
    triangle_count,
    validate_isomorphism,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from .train import SplitMasks, TrainConfig, evaluate, fit
from .wavelets import bank_sweep, wavelet_sweep

__version__ = "0.1.0"
