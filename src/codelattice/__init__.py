"""Exact lattices from binary linear codes, with verified counterexamples.

The toolkit builds integer lattices from binary linear codes (Construction
A, Construction D and variants, the minimum-weight-span lattice, the C*
intersection form, and the non-lattice code formula), computes exact
invariants (minimum distance, kissing numbers, shortest vectors), and
mechanically checks the counterexample gadgets shipped in ``gadgets``.
"""

from .errors import (
    DimensionMismatch,
    EnumerationBudgetExceeded,
    HypothesesFail,
    LengthMismatch,
    ModTwoMismatch,
    NotATower,
    NotFullRank,
    OutputTooLarge,
    ParseError,
    QuotientTooLarge,
    RankTooLarge,
    ShapeMismatch,
    SupportTooLarge,
    ToolkitError,
    TowerViolation,
    WeightViolation,
    ZeroCode,
    ZeroRank,
)
from .gf2core import (
    BinaryMatrix,
    BinaryVector,
    Code,
    CodeTower,
    code_kissing_number,
    complete_to_full_rank,
    is_schur_closed_tower,
    is_subcode,
    kernel_basis,
    min_distance,
    min_weight_codewords,
    rank,
    schur_product,
    solve,
)
from .zlattice import (
    Determinant,
    Lattice,
    ShortVectorReport,
    contains,
    determinant,
    hnf,
    lll_reduce,
    lp_norm,
    lp_power_sum_cmp,
    scale,
    shortest_vectors,
    vectors_up_to,
)

__version__ = "0.1.0"
