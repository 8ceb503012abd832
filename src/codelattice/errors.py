"""Exception types shared across the toolkit.

Every guard in the library raises one of these instead of a bare ValueError
so callers (and the CLI exit-code mapping) can tell contract violations
apart from genuine bugs.
"""

from __future__ import annotations

__all__ = [
    "ToolkitError",
    "LengthMismatch",
    "ShapeMismatch",
    "DimensionMismatch",
    "RankTooLarge",
    "ZeroCode",
    "ZeroRank",
    "NotFullRank",
    "NotATower",
    "TowerViolation",
    "WeightViolation",
    "QuotientTooLarge",
    "SupportTooLarge",
    "ModTwoMismatch",
    "OutputTooLarge",
    "EnumerationBudgetExceeded",
    "HypothesesFail",
    "ParseError",
]


class ToolkitError(Exception):
    """Base class for all library errors."""


class LengthMismatch(ToolkitError):
    """Two vectors or codes of different block length were combined."""


class ShapeMismatch(ToolkitError):
    """Matrix shapes are inconsistent for the requested operation."""


class DimensionMismatch(ToolkitError):
    """Ambient dimensions of lattices/vectors disagree."""


class RankTooLarge(ToolkitError):
    """A rank cap was exceeded: a 2^k codeword sweep (k > 28) or a
    Fincke-Pohst walk (rank > 768, one recursion frame per level) was refused."""


class ZeroCode(ToolkitError):
    """Minimum distance of the zero code is undefined."""


class ZeroRank(ToolkitError):
    """The operation needs a lattice of rank at least 1."""


class NotFullRank(ToolkitError):
    """A matrix that must be invertible over F2 is singular."""


class NotATower(ToolkitError):
    """Nested-code inclusions do not hold."""


class TowerViolation(ToolkitError):
    """Strict tower validation failed (distance or rank condition)."""


class WeightViolation(ToolkitError):
    """A vector does not have the Hamming weight the construction demands."""


class QuotientTooLarge(ToolkitError):
    """The witness descent over the digits of a d-bar quotient would run
    more prefix tests than its cap; the tests are counted as they run (a
    set sum that is a lattice is decided without a descent)."""


class SupportTooLarge(ToolkitError):
    """A sign-pattern sweep over a codeword support was refused (> 24)."""


class ModTwoMismatch(ToolkitError):
    """The lattice's mod-2 reduction is not contained in the given code,
    so the support-restricted ternary search would be incomplete."""


class OutputTooLarge(ToolkitError):
    """A Fincke-Pohst walk would keep more than 2^24 entries (vectors times
    n, v and -v counted apart) of output, counted at each kept leaf."""


class EnumerationBudgetExceeded(ToolkitError):
    """Fincke-Pohst node budget ran out; the instance is too large.

    A node is one candidate coefficient of the sign-symmetric walk, which
    reaches each +-v pair once: at a fixed radius it takes (plain-walk
    nodes + rank) / 2 of them, so a budget covers about twice the radius
    work of the plain walk that visits v and -v apart.

    Never a wrong answer: callers either re-run with a larger budget or
    report the overflow.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        super().__init__(f"enumeration exceeded node budget {budget}")


class HypothesesFail(ToolkitError):
    """A verifier was asked to proceed although gadget hypotheses fail.

    Carries the offending hypothesis report, the plain dict described in
    ``gadgets``, in `.report` when available.
    """

    def __init__(self, message: str, report=None) -> None:
        self.report = report
        super().__init__(message)


class ParseError(ToolkitError):
    """A matrix / manifest file is malformed."""
