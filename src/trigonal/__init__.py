"""Explicit (2,2,2)-isogenies from Jacobians of genus-3 hyperelliptic curves.

The pipeline: enumerate the rational tractable subgroups of Jac(H)[2]
(Galois-stable pairings of the 8 Weierstrass points), build a rational
trigonal map for a subgroup when the pencil discriminant is a square,
run the explicit trigonal construction to get the codomain curve X and
the correspondence inducing the isogeny, evaluate it on divisor classes,
and verify by the reverse composition acting as multiplication by +/-2.
"""

from .construction import (
    build_correspondence,
    build_fibration,
    build_plane_model,
    build_X,
    isogeny_is_rational,
)
from .curves import (
    DivisorClass,
    HCurve,
    Mobius,
    OddModel,
    cantor_add,
    cantor_mul,
    class_from_points,
    count_points,
    l_polynomial,
    point_class,
    random_class,
    random_class_on,
    two_torsion_from_pair,
)
from .evaluation import (
    XDivisor,
    XPoint,
    consensus_sign,
    fiber_partition_oracle,
    fiber_points,
    phi_on_class,
    reverse_on_xdivisor,
    roundtrip,
)
from .fields import make_extension, prime_field
from .polyring import (
    BinaryForm,
    BiPoly,
    Poly,
    exact_square_root,
    factorize,
    is_squarefree,
    reduce_mod_cubic,
)
from .subgroups import (
    TractableSubgroup,
    count_for_pattern,
    enumerate_tractable,
    expectation,
    pattern_of,
    subgroup_elements,
)
from .survey import SurveyConfig, SurveyStats, deterministic_prime, random_curve, run_survey
from .trigmaps import (
    TrigonalMap,
    build_M,
    kernel_basis,
    plucker_of_pair,
    rationality_discriminant,
    trigonal_map_for,
    verify_trigonal,
)

__version__ = "0.1.0"
