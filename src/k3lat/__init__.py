"""Exact-arithmetic toolkit for even lattices, ADE root systems,
glue-vector overlattices and characteristic-2 double planes attached to
supersingular K3 surfaces of small Artin invariant."""

from .exact_arith import IntMatrix, SnfResult, det, inertia, invert, snf
from .lattice_core import (
    DiscClass,
    DiscriminantGroup,
    DualVector,
    Lattice,
    discriminant_group,
    is_even,
    is_p_elementary,
    lattice_A1,
    lattice_D4,
    lattice_hyperbolic2,
    orthogonal_complement,
    pairing,
)
from .root_systems import (
    PositivityFunctional,
    RootComponent,
    RootSet,
    ade_type,
    bounded_class_minimizers,
    enumerate_roots,
    irreducible_decomposition,
    positive_indecomposables,
)
from .ns_glue import (
    LabeledSum,
    OverlatticeSpec,
    artin_invariant,
    build_lambda,
    build_overlattice,
    extra_glue_class,
    halfline_class,
    independence_check,
    unique_halfline_search,
)

__version__ = "0.1.0"
