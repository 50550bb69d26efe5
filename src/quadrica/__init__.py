"""Finite square rings, their modules, and quadratic-map defect calculus."""

from .errors import (
    CapExceeded,
    CertificateInvalid,
    ConsistencyError,
    InvalidEpsilon,
    NonCommutativeRing,
    NotAGroup,
    NotAnAlgebra,
    NotARing,
    NotComposable,
    NotNormal,
    ParseError,
    PreconditionUnmet,
    QuadricaError,
    SearchSpaceTooLarge,
)
from .config import Config, get_config, set_config
from .verdict import Failure, Verdict
from .groups import FiniteGroup, build_group, cyclic, dihedral, direct_product, generators
from .rings import CommutativeRing, NearRing, build_near_ring, zmod
from .squarering import (
    RingBar,
    SquareRing,
    cokernel_p,
    ensure_verified,
    is_commutative,
    operad_of,
    verify_square_ring,
)
from .modules import (
    BarModule,
    BhpModule,
    CpModule,
    GradedAlgebra2,
    admissible_intermediates,
    derived_module,
    elementary_properties,
    ensure_module_verified,
    free_cp_pair,
    generated_submodule,
    gr,
    gr_gamma,
    gr_z,
    is_cp_linear,
    is_linear,
    quotient_bhp,
    quotient_cp,
    r_center,
    rbar_regular_module,
    ree_module,
    regular_module,
    submodule_module,
    verify_bhp_module,
    verify_cp_module,
    zero_module,
)
from .quadratic import (
    RELATION_TEXT,
    DefectBundle,
    HomModule,
    MapTable,
    QuadCertificate,
    batch_bhp_quadratic,
    batch_cp_quadratic,
    certificate_valid,
    compose_quadratic,
    cp_implies_bhp,
    defects,
    enumerate_cp_quadratic,
    factorization_check,
    hom_module,
    is_bhp_quadratic,
    is_cp_quadratic,
    promote_to_cp,
    pullback,
    pushforward,
    three_defects_check,
)
from .naive import naive_bhp_quadratic, naive_cp_quadratic
from .serialize import dumps, from_doc, loads, to_doc
from .examples import (
    ALGEBRA_KINDS,
    FAMILY_KINDS,
    AlgebraData,
    ExampleSpec,
    build_example,
    commutativity_census,
    i2_ideal,
    module_from_algebra,
)

__version__ = "0.1.0"
