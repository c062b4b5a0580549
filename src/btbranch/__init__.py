"""Branches of quadratic matrix algebras on the Bruhat-Tits tree of
SL_2 over F_(2^tau)((t)), and the arithmetic that predicts how two
branches sit relative to each other.

The stack, bottom up: residue-field arithmetic (gf2), Laurent series
with explicit precision (series), Artin-Schreier and square defects and
the five-way classification of X^2 + aX + b (defects), 2x2 matrix
algebra and generating pairs (mat2), the vertex window and membership
measurements (tree), branch shapes and position prediction (geometry),
the realisability decision for a prescribed datum (existence), and the
seeded differential self-test (selftest).
"""

from .gf2 import FieldConfig, field
from .series import (DEFAULT_PREC, Series, UndeterminedAtPrecision, s_add,
                     s_div, s_from_terms, s_inv, s_monomial, s_mul, s_one,
                     s_parse, s_random, s_render, s_split, s_sqrt, s_square,
                     s_truncate, s_val, s_zero, val_ge)
from .defects import (KINDS, QuadPoly, as_defect, classify, quad_defect,
                      render_ideal)
from .mat2 import (Datum, Mat2, NonIntegral, PairConfig, ScalarMatrix,
                   companion, discriminant_params, m_conj, m_mul, m_parse,
                   m_render, make_pair, min_poly, sym_product)
from .tree import (MeasuredBranch, MeasuredShape, Vertex, Window, dot_export,
                   enumerate_window, measure_branch, measure_intersection,
                   oracle_branch, tree_distance)
from .geometry import (BranchShape, Disjoint, FoliageContained, FoliageMeet,
                       InfiniteFoliage, Overlap, ProjPoint, RelPos,
                       SharedMaxPath, SharedRay, ThickLine, branch_shape,
                       check_agreement, fake_distance, predict_relpos,
                       shape_members)
from .existence import (DegenerateForm, ExistenceVerdict, algebra_spec,
                        cyclic_presentation, decide, search_pair,
                        search_zero_divisor, splits, verify_witness)
from .selftest import SelfTestReport, run_selftest

__version__ = "0.1.0"
