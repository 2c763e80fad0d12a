"""Exception types shared across the workbench."""


class FnqError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------- algebra

class InvalidRingSpec(FnqError):
    """The ring specification violates a structural invariant."""


class NonPrimeModulus(InvalidRingSpec):
    """A constructor that needs a prime characteristic got a composite."""


class ReducibleModulus(InvalidRingSpec):
    """A field constructor got a reducible defining polynomial."""


class AxiomViolation(FnqError):
    """A constructed operation table failed the exhaustive axiom check."""


class BudgetExceeded(FnqError):
    """A construction or search would exceed its configured budget."""

    def __init__(self, message: str, needed: int | None = None):
        super().__init__(message)
        self.needed = needed


class NotAField(FnqError):
    """An operation requiring field scalars got a ring with non-units."""


# ----------------------------------------------------------------- eqdsl

class EquationSyntaxError(FnqError):
    """Equation text failed to parse.  Offsets are 1-based byte positions."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ArityError(FnqError):
    """The same name was used both as a function and as a parameter."""


class UnboundName(FnqError):
    """Evaluation met a function or parameter with no binding."""


class EvalDomainError(FnqError):
    """A function table was applied to an element outside its domain."""


# ---------------------------------------------------------------- solver

class InvalidTask(FnqError):
    """A task is malformed: a free name of its equation is not covered, a
    class string names no class, or a shift constant, parameter value or
    other given element is no element of the ring."""


class InvalidBudget(FnqError):
    """A budget given on the command line is not a positive integer."""


# -------------------------------------------------------------- theorems

class NotCentral(FnqError):
    """The shift constant must lie in the center of the ring."""


class EpsilonZero(FnqError):
    """The shift constant must be nonzero."""


class BothZero(FnqError):
    """The two combination weights must not vanish simultaneously."""


class ResidualNonzero(FnqError):
    """A triple handed to the classifier does not solve the equation."""

    def __init__(self, message: str, pairs=None):
        super().__init__(message)
        self.pairs = list(pairs or [])


class Unclassifiable(FnqError):
    """A solution matched no known parametric family."""


# -------------------------------------------------------------- symbolic

class UnsupportedArgument(FnqError):
    """Formal substitution only supports arguments x, y and x*y."""
