"""Curvature of left-invariant metrics on so(3) and so(4).

Computes sectional curvature of left-invariant metrics (closed form plus an
independent Koszul-formula oracle), evaluates curvature-variation
derivatives along inverse-linear metric paths, generates the known
nonnegatively curved metric families on so(4), and certifies or refutes
nonnegativity over 2-planes (a Pluecker-quadric lower bound and exact
alternating minimization) and over commuting pairs.
"""

from .algebra import (
    LieAlgebra,
    Subalgebra,
    diagonal_subalgebra,
    factor_subalgebra,
    so3,
    so4,
)
from .errors import (
    DegeneratePlane,
    DimensionMismatch,
    FamilyConstraintViolated,
    HorizonExceeded,
    LieCurvError,
    NormalFormUnavailable,
    NotCommuting,
    NotPositiveDefinite,
)
from .families import (
    ProductParams,
    S3ActionParams,
    TorusParams,
    inverse_linear_eigs_s3,
    invariant_abelian_residual_many,
    product_invariant_planes,
    product_phi,
    s3_action_invariant_planes,
    s3_action_path_residual_many,
    s3_action_phi,
    s3_action_psi,
    s3_quotient_eigenvalues,
    torus_invariant_planes,
    torus_phi,
    torus_psi,
)
from .metric import (
    LeftInvariantMetric,
    koszul_oracle,
    normalized_curvature,
    puttmann_curvature,
)
from .normalform import (
    NormalFormBasis,
    NormalFormParams,
    normal_form_kappa3,
    normal_form_psi,
    psi_normal_form,
)
from .variation import (
    InverseLinearPath,
    finite_diff,
    k_of_t,
    k_of_t_many,
    k_second_deriv,
    k_second_deriv_many,
    kappa_of_t,
    kappa_of_t_many,
    kappa_third_deriv,
    refined_derivative,
)
from .verify import (
    CommutingPair,
    CurvatureReport,
    EigenStructure,
    LemmaKReport,
    VERDICT_NEGATIVE,
    VERDICT_NONNEGATIVE,
    infinitesimal_check,
    lemma_k_check,
    min_curvature,
    null_space,
    path_scan,
    path_scan_many,
    sample_commuting_pairs,
)

__version__ = "0.1.0"
