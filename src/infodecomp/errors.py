"""Exception hierarchy for the infodecomp package.

Every error raised by the library derives from :class:`InfodecompError`, so
callers can catch one base class at the CLI boundary. Subclasses are grouped
by the layer that raises them.
"""

from __future__ import annotations


class InfodecompError(Exception):
    """Base class for all library errors."""


# --- distribution layer -----------------------------------------------------


class DistributionError(InfodecompError):
    """Invalid distribution construction or query."""


class SumNotOne(DistributionError):
    """Probabilities do not sum to exactly one."""


class DuplicateOutcome(DistributionError):
    """The same outcome tuple appears twice in a pmf."""


class AlphabetViolation(DistributionError):
    """An outcome has the wrong arity or a value outside its alphabet."""


class InvalidProbability(DistributionError):
    """A probability is negative or not a rational number."""


class UnknownVariable(DistributionError):
    """A variable selector does not resolve to a system variable."""


class SupportTooLarge(DistributionError):
    """Support size exceeds the configured enumeration cap."""


class CyclicDefinition(DistributionError):
    """A derived bit references itself or a bit defined after it."""


class UnknownBit(DistributionError):
    """A circuit references a bit name that is never defined."""


class EmptySupport(DistributionError):
    """An operation received a distribution with no outcomes."""


# --- lattice layer ----------------------------------------------------------


class LatticeError(InfodecompError):
    """Invalid antichain or lattice operation."""


class TooManySources(LatticeError):
    """Full-lattice enumeration requested for more than four sources."""


class NotANode(LatticeError):
    """An antichain passed to a lattice query is not one of its nodes."""


# --- decomposition layer ----------------------------------------------------


class DecompositionError(InfodecompError):
    """Invalid atom-table construction or verification failure."""


class NegativeRedundancy(DecompositionError):
    """An injected redundancy value is negative."""


class RankDeficient(DecompositionError):
    """The summation-rule coefficient matrix does not have full row rank."""


class ResidualTooLarge(DecompositionError):
    """An atom table does not satisfy the summation rules within tolerance."""


class AxiomViolated(DecompositionError):
    """A decomposition sum rule failed; carries the equation label and residual."""

    def __init__(self, equation: str, residual: float):
        super().__init__(f"sum rule {equation} violated, residual {residual}")
        self.equation = equation
        self.residual = residual


# --- deduction engine -------------------------------------------------------


class EngineError(InfodecompError):
    """Invalid deduction-engine usage."""


class UnsupportedArity(LatticeError, EngineError):
    """A source count other than three, where exactly three are required:
    by half-lattice enumeration and by the deduction engine."""


class StateStillOpen(EngineError):
    """A report was requested from a state that has not been propagated."""


class PropagationDidNotConverge(EngineError, RuntimeError):
    """Interval propagation still tightened bounds after its last pass."""


# --- verification suite -----------------------------------------------------


class SuiteError(InfodecompError):
    """A built-in verification could not be completed."""


class ReproductionFailed(SuiteError):
    """A built-in verification diverged from its expected value chain."""


class KeyMismatch(SuiteError):
    """Two atom assignments are not keyed by the same antichains."""
