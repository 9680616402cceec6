"""Tropical reductive groups and principal bundles on metric circles.

The semiring is 𝕋 = ℚ∪{∞} with min and +; groups are semidirect products of
a cocharacter space by a finite Weyl group, with faithful generalized
permutation matrix models for the classical families and G₂.  Bundles on a
circle ℝ/jℤ are Čech cocycles (m, α, w) up to an explicit gauge action, with
exact classification, degree, and slope-stability machinery.
"""

from .circles import (
    CircleCocycle,
    ComponentDescription,
    MultiLineBundle,
    are_isomorphic,
    classify_components,
    cocycle,
    compose_gauges,
    degree,
    gauge_transform,
    isomorphism_witness,
    pushforward,
    sp_structure,
    to_multiline,
)
from .groups import (
    NotInGroupError,
    ParabolicSubgroup,
    ParentMismatchError,
    TropGroupElement,
    TropGroupHom,
    TropicalGroup,
    build_group,
    center_basis,
    compose,
    compose_hom,
    determinant_map,
    from_matrix,
    hom_det,
    hom_gl_to_pgl,
    hom_sl_to_gl,
    inverse,
    make_hom,
    to_matrix,
)
from .rootdata import (
    RootDatum,
    build_root_datum,
    dual_datum,
    fundamental_group,
    fundamental_weights,
    validate_root_datum,
)
from .semiring import (
    INF,
    GenPermDecomposition,
    NotInvertibleError,
    TropMatrix,
    TropValue,
    fin,
    invert_or_decompose,
    tadd,
    tmul,
    trop_det,
    tsum,
)
from .stability import (
    adjoint_degree,
    dominance_leq,
    is_semistable,
    is_stable,
    is_stable_degree,
    minimal_parabolic_for_degree,
    reduction_degrees,
    slope,
    stability_verdict,
)
from .weyl import (
    GuardExceededError,
    WeylElement,
    WeylGroup,
    generate,
    is_indecomposable,
    relative_weyl_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
