"""Palindromic and commutator widths of groups: exact oracles for finite
groups, quasi-homomorphism lower-bound certificates on wreath products,
constructive palindrome decompositions, and 2-nilpotent products."""

from .decompose import (
    DecompositionCertificate,
    S3WreathContext,
    InvariantViolation,
    decompose,
    s3_wreath_context,
)
from .finite_groups import (
    DEFAULT_CAP,
    CapExceeded,
    FiniteGroup,
    abelian_group,
    are_isomorphic,
    commutator_subgroup,
    commutator_width,
    cyclic,
    dihedral,
    direct_product,
    evaluate,
    find_isomorphism,
    group_from_spec,
    group_to_spec,
    sym3_fink,
)
from .free_words import (
    Alphabet,
    FreeWord,
    MonoidWord,
    format_free_word,
    format_monoid_word,
    free_alphabet,
    free_commutator,
    is_word_palindrome,
    parse_free_word,
    parse_monoid_word,
    ql,
    reduce_word,
    tr,
)
from .nilprod import (
    BoundReport,
    NilProd2,
    NilProdGroup,
    bound_report,
    centralizer_factors,
    check_sandwich,
    nilprod2,
    nilprod2_multi,
    width_bounds,
)
from .pal_width import (
    ReachablePairs,
    WidthReport,
    palindrome_elements,
    palindromic_width,
    reachable_pairs,
)
from .wreath import (
    CommutatorCertificate,
    WreathElement,
    WreathGroup,
    certify_cw_lower_bound,
    commutator_length_bound,
    delta,
    evaluate_letters,
    format_wreath_element,
    in_derived_subgroup,
    parse_wreath_element,
    q_sequence,
    w_commutator,
    w_invert,
    w_multiply,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
