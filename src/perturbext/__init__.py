"""Perturbation-based out-of-sample extension of kernel eigendecompositions."""

from .extension import (
    ExtensionConfig,
    ExtensionResult,
    Selector,
    block_extend,
    extend_with_submatrix,
    kernel_approx,
    pert_extend,
    select_submatrix,
)
from .kernels import (
    Dataset,
    KernelOverflowError,
    KernelSpec,
    build_kernel,
    build_sparse_kernel,
    gen_band_matrix,
    gen_clustered_dataset,
    gen_psd_separated_block,
    gen_rank_m_spectrum,
    gen_slow_decay,
    gen_unit_random_symmetric,
    gen_wishart_psd,
    load_dataset,
    sparsify,
    standardize,
)
from .matrixcore import (
    ConvergenceError,
    EigengapError,
    EigenPairs,
    RankDeficientError,
    SparseSymmetric,
    SymmetricDense,
    canonical_signs,
    principal_angle,
    read_dense,
    read_sparse,
    spectral_norm,
    sym_eig_full,
    sym_eig_partial,
    write_dense,
    write_sparse,
)
from .nystrom import (
    SingularSampleError,
    check_shifted_equivalence,
    check_topleft_equivalence,
    ensemble_nystrom,
    generalized_nystrom,
    nystrom_extend,
    shift_mu_mean,
    shifted_nystrom,
)
from .perturbation import (
    MuCollisionError,
    MuPolicy,
    PerturbationProblem,
    bound_terms,
    classical_eigval_update,
    classical_eigvec_update,
    is_lowrank_plus_shift,
    mu_mean,
    truncated_first_order,
    truncated_second_order,
)

__version__ = "0.1.0"
