"""Verification toolkit for a monoid presented by quaternion permutation
relations: group construction, word problem by finite class enumeration,
window-combinatorics oracles, subset-product sweeps, and F_p algebra
sampling."""

from .errors import (BadFactor, ClassTooLarge, ClosureError, ConsistencyError,
                     QsemiError)
from .perms import Perm, compose, cycle_string, cycles, from_cycles, identity, inverse
from .quaternion import (GroupTable, QuaternionConfig, build_t, build_u,
                         check_disjoi, check_other, check_stabilizer_free,
                         generate_group, group_checks, label_mul,
                         label_of_point, point_of_label)
from .words import (Canon, CongruenceClass, RewriteConfig, Word,
                    canonical_form, canonicalizer, check_overlap_bound,
                    class_of, concat, default_config, find_relation_factors,
                    format_word, parse_word, rewrite_step, words_equal)
from .lemmas import (LemmaId, LemmaReport, run_lemma_suite,
                     verify_big, verify_max_one, verify_not_possible,
                     verify_overlapp, verify_step3, verify_stepss)
from .structure import (ProductReport, SubsetSpec, check_tup,
                        make_subset_spec, product_report, run_tup_sweep)
from .algebra import (AlgebraElement, algebra_add, element_from_pairs,
                      mul_with_canon, zero_divisor_search,
                      zero_divisor_search_with_canon)

__version__ = "0.1.0"
