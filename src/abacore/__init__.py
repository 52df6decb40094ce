"""Exact combinatorics of cores, quotients, abaci, level-rank bijections,
and block partitions of specialized Ariki-Koike algebras, with a brute-force
verification CLI.
"""

from .partitions import (
    BetaSet,
    ChargedMultiPartition,
    Partition,
    e_core,
    e_quotient_charged,
    from_beta,
    hook_lengths,
    is_e_core,
    to_beta,
)
from .levelrank import qr_em, uglov
from .polynomials import IntPolynomial, cyclotomic, generic_degree, gl_order
from .hc_series import CuspidalPairGL, hc_pairs, hc_partition
from .blocks import block_match_report, residue_multiset, series_blocks

__version__ = "0.1.0"

__all__ = [
    "BetaSet",
    "ChargedMultiPartition",
    "CuspidalPairGL",
    "IntPolynomial",
    "Partition",
    "block_match_report",
    "cyclotomic",
    "e_core",
    "e_quotient_charged",
    "from_beta",
    "generic_degree",
    "gl_order",
    "hc_pairs",
    "hc_partition",
    "hook_lengths",
    "is_e_core",
    "qr_em",
    "residue_multiset",
    "series_blocks",
    "to_beta",
    "uglov",
]
