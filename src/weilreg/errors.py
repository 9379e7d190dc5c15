"""Exception hierarchy for the toolkit.

Every domain failure raises a subclass of WeilregError.  A session records a
Rejection ("the mathematics said no") as status `fail` and any other as `error`.
"""


class WeilregError(Exception):
    """Base class for all toolkit errors."""


class Rejection(WeilregError):
    """The computation ran and its verdict is negative: not bad input, not a budget."""


class ArityMismatch(WeilregError):
    """Operands live in polynomial rings with different numbers of variables."""


class BudgetExceeded(WeilregError):
    """A Groebner computation passed the configured S-pair step limit.

    Signals an intractable instance, not wrong input.
    """

    def __init__(self, steps: int, limit: int):
        super().__init__(f"groebner step budget exceeded: {steps} > {limit}")
        self.steps = steps
        self.limit = limit


class ImproperIdeal(WeilregError):
    """A defining ideal is the unit ideal, so the variety would be empty."""


class ZeroDenominator(WeilregError):
    """A denominator vanishes identically on the relevant variety."""


class RepresentativeMismatch(WeilregError):
    """Two representatives of one rational map disagree as rational maps."""


class NotIntoTarget(WeilregError):
    """A representative does not satisfy the target's defining equations."""


class NotDominant(WeilregError):
    """Operation requires a dominant map and the closed image is proper."""


class NotComposable(WeilregError):
    """Target of the first map is not the source of the second."""


class NotBirational(Rejection):
    """No rational inverse could be certified.

    This is a sound failure to certify, not a proof that no inverse exists.
    """


class PointNotOnVariety(WeilregError):
    """A sample point does not satisfy the variety's defining ideal."""


class EmptyOpen(WeilregError):
    """An open subset degenerated to the empty set."""


class AxiomFailure(WeilregError):
    """A group axiom identity failed; the message names the identity."""


class NotAnAction(Rejection):
    """An action law failed; carries the offending residue polynomial when
    the failure is an identity that does not reduce to zero, else a reason."""

    def __init__(self, law: str, reason: str = None, residue=None):
        msg = f"action law violated: {law}"
        if residue is not None:
            msg += f" (residue {residue})"
        elif reason is not None:
            msg += f": {reason}"
        super().__init__(msg)
        self.law = law
        self.residue = residue


class NotApplicable(WeilregError):
    """The operation does not apply to this kind of input: a precondition, not a verdict."""


class PointNotOnGroup(WeilregError):
    """A group element sample does not satisfy the group's defining ideal."""


class EmptyLocus(Rejection):
    """The computed G-regular locus is empty (representative set too small)."""


class RoundTripFailure(Rejection):
    """A constructed map and its claimed inverse fail the round-trip check."""


class NotFPower(Rejection):
    """The denominator is not supported on the given principal divisor."""


class SampleBudgetExhausted(WeilregError):
    """Candidate enumeration ended before enough independent points appeared."""


class SliceNotRegular(Rejection):
    """A sample slice of the function is not regular (hypothesis fails)."""

    def __init__(self, index: int, message: str = ""):
        super().__init__(message or f"slice at sample {index} is not regular")
        self.index = index


class NonPolynomialResidue(Rejection):
    """A solved component of the certificate is not regular."""


class NotRegularOnSample(Rejection):
    """A sampled group element does not act by a regular automorphism."""


class SessionSyntaxError(WeilregError):
    """Session text failed to parse; carries position and expectations."""

    def __init__(self, message: str, line: int, column: int, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        loc = f"line {line}, column {column}"
        if self.expected:
            message = f"{message} at {loc}; expected one of: " + ", ".join(self.expected)
        else:
            message = f"{message} at {loc}"
        super().__init__(message)


class UseBeforeDeclare(WeilregError):
    """A session statement references a name that was never declared."""
