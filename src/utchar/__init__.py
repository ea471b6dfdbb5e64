"""Exact supercharacter, Kirillov-function, and induced-character
computations for unitriangular and general algebra groups over F_q."""

from .scalars import (AdditiveCharacter, CyclotomicNumber, Field,
                      cyclotomic_polynomial, field_make, in_subfield)
from .algebra import (CapExceeded, GroupElement, NilAlgebra, NilMatrix,
                      Pattern, Subspace, VerificationFailed, ideal_check,
                      quotient_project, trunc_exp)
from .duals import (Functional, SetPartition, act_coadjoint, act_left,
                    act_right, is_quasi_monomial, orbit, shape, torus_act,
                    torus_orbit)
from .chain import ChainResult, chain_compute, quasimonomial_kernels
from .characters import (AbelianDual, ClassFunction, GroupTable,
                         abelian_dual, constituents_of_induced_linear,
                         exp_kirillov, induce, kirillov, supercharacter,
                         theta_lambda, xi)
from .exotic import (RegionAtlas, abelian_quotient_split, build_regions,
                     constant_diagonal_algebra, corner_character_analysis,
                     corner_functional, exotic_report, exotic_shape, verdict,
                     verify_chain_closed_forms)

__version__ = "0.1.0"
