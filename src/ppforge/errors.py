"""Typed errors shared across the package."""

import copyreg


class PPForgeError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # unpickle (a pool worker's raise) from args and attributes: a subclass
        # __init__ that formats its message must not run on the formatted one
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class NotPrime(PPForgeError):
    def __init__(self, n):
        super().__init__(f"{n} is not an odd prime")
        self.n = n


class SizeExceeded(PPForgeError):
    def __init__(self, size, limit):
        super().__init__(f"field size {size} exceeds the configured cap {limit}")
        self.size = size
        self.limit = limit


class FieldMismatch(PPForgeError):
    """Operands belong to different fields."""


class DivisionByZero(PPForgeError, ZeroDivisionError):
    """Inverse or negative power of the zero element."""


class NotADivisor(PPForgeError):
    def __init__(self, d, n):
        super().__init__(f"{d} does not divide {n}")
        self.d = d
        self.n = n


class NotInMu(PPForgeError):
    """Element is not a (q+1)-th root of unity."""


class PartitionNotDisjoint(PPForgeError):
    """Coset operation on a partition with gcd(d, (q+1)/d) != 1."""


class NegativeExponent(PPForgeError):
    def __init__(self, exponent):
        super().__init__(f"polynomial exponent {exponent} is negative")
        self.exponent = exponent


class HypothesesNotSatisfied(PPForgeError):
    def __init__(self, violations):
        super().__init__("hypotheses not satisfied: " + "; ".join(violations))
        self.violations = tuple(violations)


class BadCongruence(PPForgeError):
    def __init__(self, q, requirement):
        super().__init__(f"q={q} does not satisfy {requirement}")
        self.q = q
