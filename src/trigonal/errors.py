"""Exception hierarchy for the trigonal package.

Every mathematical failure mode raises a subclass of TrigonalError so the
CLI can map them onto structured diagnostics (exit code 1), while genuine
usage errors (bad input files, bad arguments) surface as ValueError /
argparse errors (exit code 2).
"""


class TrigonalError(Exception):
    """Base class for domain errors."""

    code = "error"

    def payload(self):
        return {"error": self.code, "detail": str(self)}


class NonPrime(TrigonalError):
    code = "non_prime"


class PrimeTooSmall(TrigonalError):
    code = "prime_too_small"


class BadDegree(TrigonalError):
    code = "bad_degree"


class ContextMismatch(TrigonalError):
    code = "context_mismatch"


class ZeroPolynomial(TrigonalError):
    code = "zero_polynomial"


class NotSquarefree(TrigonalError):
    """A polynomial that must have distinct roots has a repeated factor."""

    code = "not_squarefree"


class NotMonicCubic(TrigonalError):
    code = "not_monic_cubic"


class NoRationalWeierstrassPoint(TrigonalError):
    code = "no_rational_weierstrass_point"


class ModelMismatch(TrigonalError):
    code = "model_mismatch"


class TooLarge(TrigonalError):
    code = "too_large"


class NotAFactor(TrigonalError):
    code = "not_a_factor"


class NotAPartitionOf8(TrigonalError):
    code = "not_a_partition_of_8"


class DegeneratePair(TrigonalError):
    code = "degenerate_pair"


class DegenerateConfiguration(TrigonalError):
    code = "degenerate_configuration"


class NotRational(TrigonalError):
    """No F_q-rational trigonal map exists for the subgroup (non-square discriminant)."""

    code = "not_rational"


class SquareRootObstruction(TrigonalError):
    """s(t) is not alpha times a perfect square: invalid trigonal map / subgroup pairing."""

    code = "square_root_obstruction"


class TooFewPoints(TrigonalError):
    """The curve has too few points over its field for the requested sample."""

    code = "too_few_points"


class NotAMultiple(TrigonalError):
    """A supposed multiple of a group element's order does not kill it."""

    code = "not_a_multiple"


class BadSign(TrigonalError):
    """A correspondence sign other than +1 or -1."""

    code = "bad_sign"


class BadSupport(TrigonalError):
    code = "bad_support"


class RamifiedFiber(TrigonalError):
    code = "ramified_fiber"
