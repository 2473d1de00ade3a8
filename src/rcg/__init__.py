"""Exact computations in SL_n over computable real closed fields.

Two scalar backends: a quadratic-extension tower over Q (TowerScalar) and
truncated Puiseux series over it with the variable infinite
(PuiseuxScalar).  On top of them: exact linear algebra, the Iwasawa, Cartan
and Bruhat decompositions, nilpotent exp/log with BCH and Zassenhaus
calculus, Jacobson-Morozov triples, root systems and Weyl groups, and the
Kostant convexity membership test.
"""

from .decomp import (
    BruhatResult,
    KAKResult,
    KAUResult,
    UAKResult,
    a_component,
    bruhat,
    cartan_kak,
    iwasawa_kau,
    iwasawa_uak,
    kak_uniqueness_check,
)
from .errors import RcgError
from .kostant import (
    ChamberPoint,
    chamber_projection,
    kostant_chars,
    kostant_member,
    orbit_sample_check,
)
from .linalg import (
    Matrix,
    PUISEUX,
    PuiseuxDomain,
    TOWER,
    char_poly,
    det,
    inverse,
    kernel,
    rank,
    solve,
    sym_eigen_lift,
    sym_eigen_tower,
)
from .nilpotent import (
    Sl2Triple,
    ThetaSet,
    bch,
    bch_series_terms,
    exp_nilpotent,
    jacobson_morozov,
    jm_basic_triple,
    log_unipotent,
    m_element,
    rank1_bruhat_certify,
    sl2_embed,
    u_theta_factorize,
    zassenhaus,
)
from .parsing import parse_matrix, parse_scalar
from .puiseux import PuiseuxScalar, X
from .rootsys import RootSystem, build, cone_data, eta_plus_expansion, weyl, weyl_order
from .slgroup import (
    GroupElement,
    RootIndex,
    chi,
    killing_form,
    member_A,
    member_B,
    member_K,
    member_M,
    member_N,
    member_U,
    root_space_decompose,
    theta,
)
from .tower import TowerScalar, sqrt_positive

__version__ = "0.1.0"

__all__ = [
    "BruhatResult",
    "ChamberPoint",
    "GroupElement",
    "KAKResult",
    "KAUResult",
    "Matrix",
    "PUISEUX",
    "PuiseuxDomain",
    "PuiseuxScalar",
    "RcgError",
    "RootIndex",
    "RootSystem",
    "Sl2Triple",
    "ThetaSet",
    "TOWER",
    "TowerScalar",
    "UAKResult",
    "X",
    "a_component",
    "bch",
    "bch_series_terms",
    "bruhat",
    "build",
    "cartan_kak",
    "chamber_projection",
    "char_poly",
    "chi",
    "cone_data",
    "det",
    "eta_plus_expansion",
    "exp_nilpotent",
    "inverse",
    "iwasawa_kau",
    "iwasawa_uak",
    "jacobson_morozov",
    "jm_basic_triple",
    "kak_uniqueness_check",
    "kernel",
    "killing_form",
    "kostant_chars",
    "kostant_member",
    "log_unipotent",
    "m_element",
    "member_A",
    "member_B",
    "member_K",
    "member_M",
    "member_N",
    "member_U",
    "orbit_sample_check",
    "parse_matrix",
    "parse_scalar",
    "rank",
    "rank1_bruhat_certify",
    "root_space_decompose",
    "sl2_embed",
    "solve",
    "sqrt_positive",
    "sym_eigen_lift",
    "sym_eigen_tower",
    "theta",
    "u_theta_factorize",
    "weyl",
    "weyl_order",
    "zassenhaus",
]
