"""Exact computation of Bernstein-Sato zero sets for reduced quasi-homogeneous
polynomials and central essential indecomposable line arrangements in three
variables, over rational arithmetic throughout."""

from .arrangement import (Arrangement, ArrangementRootReport, ConditionReport,
                          LinearForm, SingularPoint, arrangement_profile,
                          comb_roots, condition_report, full_root_report,
                          is_formal, is_indecomposable,
                          relation_space_dimension, singular_points, validate)
from .bsroots import (HomogeneousTaxonomy, RootSet, SymmetryReport, blf_roots,
                      check_partial_symmetry, homogeneous_taxonomy, new_roots,
                      reconstruct_zero_set, roots_isolated, sigma, small_roots,
                      tlct_holds, xi_set)
from .graded import (DegreeData, RegularityReport, graded_dimension,
                     h0_degree_data, h1_dimension, regularity_report,
                     sheaf_dimension_e)
from .groebner import (DEFAULT_STEP_CAP, GroebnerBasis, Ideal, MonomialOrder,
                       ResourceLimitError, buchberger, normal_form,
                       saturated_leading_monomials, step_budget)
from .milnor import (INFINITE, MilnorProfile, der_log0_graded_dimension,
                     jacobian_ideal, milnor_profile)
from .polyring import (Bs3Error, ParseError, Polynomial, PreconditionError,
                       WeightSystem, euler_apply, format_rational,
                       is_quasi_homogeneous, parse_polynomial,
                       partial_derivative, wdeg)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
