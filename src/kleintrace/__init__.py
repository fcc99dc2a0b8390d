"""Exact computations with twisted traces on quantized Kleinian
singularities of type A: trace-space dimensions, degeneracy via coset sums,
rational reconstruction of Stieltjes transforms, Pade/Hankel degeneracy
profiles, finite-dimensional module traces, and numeric verification of the
trace difference equation through Lerch sums."""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    MorphismSpec,
    apply_gt,
    morphism_apply,
    multiply_normal,
)
from .degeneracy import (
    DegeneracyReport,
    PoleBounds,
    decompose_pole_order,
    decompose_two_root,
    degenerate_basis,
    delta_criterion,
    delta_invariant,
    pole_bounds,
    radical_generator,
    reconstruct_principal_parts,
    reconstruct_rational,
)
from .exactkernel import (
    CosetKey,
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    PrincipalParts,
    TruncatedSeries,
    coset_key,
    parse_factored,
    partial_fractions,
    q_from_principal_parts,
    series_of_rational,
)
from .findim import (
    ModuleRep,
    build_jordan_module,
    build_string_module,
    module_trace,
)
from .lerch import (
    lerch_phi,
    stieltjes_solution,
    verify_lerch_recursion,
)
from .pade import (
    PadeApproximant,
    degeneracy_profile,
    is_n_degenerate,
    pade_approximant,
    verify_pade_functional,
)
from .tracespace import (
    TraceSpec,
    evaluate_trace,
    hankel_rank,
    pullback_spec,
    q_from_moments,
    solve_moments,
    spec_from_moments,
    trace_dim,
)

__all__ = [
    "AlgebraElement",
    "CosetKey",
    "DegeneracyReport",
    "DensePolynomial",
    "FactoredPolynomial",
    "GaussianRational",
    "ModuleRep",
    "MorphismSpec",
    "PadeApproximant",
    "PoleBounds",
    "PrincipalParts",
    "TraceSpec",
    "TruncatedSeries",
    "apply_gt",
    "build_jordan_module",
    "build_string_module",
    "coset_key",
    "decompose_pole_order",
    "decompose_two_root",
    "degeneracy_profile",
    "degenerate_basis",
    "delta_criterion",
    "delta_invariant",
    "evaluate_trace",
    "hankel_rank",
    "is_n_degenerate",
    "lerch_phi",
    "module_trace",
    "morphism_apply",
    "multiply_normal",
    "pade_approximant",
    "parse_factored",
    "partial_fractions",
    "pole_bounds",
    "pullback_spec",
    "q_from_moments",
    "q_from_principal_parts",
    "radical_generator",
    "reconstruct_principal_parts",
    "reconstruct_rational",
    "series_of_rational",
    "solve_moments",
    "spec_from_moments",
    "stieltjes_solution",
    "trace_dim",
    "verify_lerch_recursion",
    "verify_pade_functional",
]
