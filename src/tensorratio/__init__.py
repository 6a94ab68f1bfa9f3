"""Spectral norms, best rank-one approximations, and spectral-to-Frobenius
ratio bounds for symmetric tensors of (border) rank two, plus the third-order
nonsymmetric counterpart on 2x2x2 tensors."""

from .config import IterConfig, SearchConfig
from .ranktwo import (
    BorderParams,
    CaseTag,
    MinRatioResult,
    NondifferentiablePointError,
    RankTwoParams,
    border_ratio_scan,
    canonical_params,
    classify_case,
    critical_equation_roots,
    equal_diff_frob_sq,
    equal_diff_ratio_lb,
    equal_diff_spectral_lb,
    extremal_frob_norm,
    extremal_ratio,
    extremal_spectral_norm,
    extremal_tensor,
    make_border,
    make_rank_two,
    maximizer_side_check,
    min_ratio_search,
    project_pair,
    ratio_squared,
    ratio_squared_grad,
)
from .spectral import (
    DegenerateTensorError,
    MaximizerSet,
    RankOneApprox,
    best_rank_one,
    count_global_maximizers,
    ratio,
    relative_distance,
    spectral_norm_binary,
    spectral_norm_power,
)
from .symtensor import (
    DegenerateSpanError,
    Frame,
    SymTensor,
    frob_inner,
    frob_norm,
    poly_eval,
    poly_grad,
    restrict_to_plane,
    sym_outer,
    sym_rank_one,
)
from .tensor3 import (
    NormalForm222,
    Tensor3,
    embed_normal_form,
    extremal_tensor3,
    feasible_max_scan,
    feasible_max_scan_batch,
    hyperdet,
    make_rank_two_3,
    ratio_3,
    spectral_norm_3,
)

__version__ = "0.1.0"
