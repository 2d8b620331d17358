"""Exception hierarchy.

Every rejection of bad input raises a subclass of ValidationError carrying
enough context (basis triple, minor index, ...) to locate the offending
entry without re-running the check by hand.
"""


class LiesympError(Exception):
    """Base class for everything raised on purpose by this package."""


class ValidationError(LiesympError):
    """Input data fails one of the structural axioms."""


class DimensionMismatch(ValidationError):
    pass


class BadNumber(ValidationError, ValueError):
    """A number string outside the grammar: an integer or p/q, with an
    optional leading minus and nothing else (no decimal point, exponent,
    underscore, sign on the denominator or surrounding space)."""


class BracketOrder(ValidationError, ValueError):
    """A bracket given as (i, j) with i >= j; only i < j is stored, the
    antisymmetric partner and [e_i, e_i] = 0 are implied."""


def _on_triple(what, i, j, k, names, label, value) -> str:
    """"<what> fails on basis triple (a, b, c)[: <label> <value>]", the
    triple by its names when given, else by its indices."""
    shown = ", ".join(map(str, (i, j, k) if names is None
                          else (names[i], names[j], names[k])))
    msg = f"{what} fails on basis triple ({shown})"
    return msg if value is None else f"{msg}: {label} {value}"


class JacobiViolation(ValidationError):
    """Jacobi identity fails; args carry the basis triple (i, j, k)."""

    def __init__(self, i, j, k, residual=None, names=None):
        self.triple = (i, j, k)
        self.residual = residual
        super().__init__(_on_triple("Jacobi identity", i, j, k, names,
                                    "residual", residual))


class NotSkewSymmetric(ValidationError):
    pass


class DegenerateForm(ValidationError):
    pass


class CocycleViolation(ValidationError):
    """d(omega) != 0; args carry the basis triple (i, j, k)."""

    def __init__(self, i, j, k, value=None, names=None):
        self.triple = (i, j, k)
        self.value = value
        super().__init__(_on_triple("2-cocycle condition", i, j, k, names,
                                    "d-omega value", value))


class NotAlmostComplex(ValidationError):
    """J*J != -Id."""


class NotCompatible(ValidationError):
    """omega(J., J.) != omega(., .)."""


class NotPositive(ValidationError):
    """The induced symmetric form is not positive definite.

    `minor_index` is the size k of the first leading principal minor that
    fails Sylvester's criterion, `minor_value` its exact determinant.
    """

    def __init__(self, minor_index, minor_value):
        self.minor_index = minor_index
        self.minor_value = minor_value
        super().__init__(
            f"induced metric not positive definite: leading {minor_index}x"
            f"{minor_index} minor = {minor_value}"
        )


class SingularGram(ValidationError):
    """Gram matrix handed to `complement` is singular on the subspace."""


class PerfectAlgebra(ValidationError):
    """Algebra has no nonzero characters ([g,g] = g)."""


class ZeroCharacter(ValidationError):
    pass


class NotACharacter(ValidationError):
    """Functional does not vanish on the derived subalgebra."""


class Unsatisfiable(ValidationError):
    """No model with the requested invariants exists."""


class SerializationError(ValidationError):
    """Malformed JSON payloads, including any float contamination."""


class InternalInvariantViolation(LiesympError):
    """A cross-check between two independent computations disagreed.

    This is never a user error: it means one of the implementations is
    wrong and the result cannot be trusted.
    """
