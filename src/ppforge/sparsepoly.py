"""Sparse polynomials over F_{q^2}: exponent/coefficient term lists.

SparsePoly is the unit of evaluation and display.  Terms are kept normalized:
exponents strictly increasing, coefficients nonzero, duplicates merged.  The
one fold, reduce_mod (exponents mod q^2 - 1), agrees with the original as a
function on all of F_{q^2} because every positive exponent stays positive;
the oracle evaluates through it, and its str is the text of the CLI's
reduced_f column, which sweep rows build from plain ints.
"""

from .errors import FieldMismatch, NegativeExponent


class SparsePoly:
    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        """terms: iterable of (exponent, coefficient Element) pairs; merged,
        zero coefficients dropped, sorted by exponent."""
        merged = {}
        for e, c in terms:
            if e < 0:
                raise NegativeExponent(e)
            if c.field is not field and not field.same_field(c.field):
                raise FieldMismatch("coefficient from a different field")
            if e in merged:
                merged[e] = merged[e] + c
            else:
                merged[e] = c
        self.field = field
        self.terms = tuple(sorted((e, c) for e, c in merged.items() if not c.is_zero()))

    @classmethod
    def from_int_pairs(cls, field, pairs):
        """Build from (exponent, canonical integer) pairs."""
        return cls(field, [(e, field.from_int(c)) for e, c in pairs])

    @classmethod
    def monomial(cls, field, coeff, exponent):
        return cls(field, [(exponent, coeff)])

    def is_zero(self):
        return not self.terms

    def canonical_terms(self):
        """Terms as (exponent, canonical integer) pairs."""
        return tuple((e, int(c)) for e, c in self.terms)

    def reduce_mod(self):
        """Fold exponents modulo n = q^2 - 1 and re-merge.

        A positive exponent e maps to ((e - 1) mod n) + 1, never to 0, so a
        term that vanishes at x = 0 keeps vanishing there; exponent 0 stays a
        true constant.  The folded polynomial therefore equals the original
        pointwise on the whole field.  Returns self when nothing folds.
        """
        n = self.field.q2 - 1
        if not self.terms or self.terms[-1][0] <= n:  # nothing folds
            return self
        return SparsePoly(
            self.field,
            [(e if e == 0 else (e - 1) % n + 1, c) for e, c in self.terms],
        )

    def compose_power(self, r, m):
        """Return x^r * self(x^m): every term (e, c) becomes (r + e*m, c)."""
        return SparsePoly(self.field, [(r + e * m, c) for e, c in self.terms])

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.field.same_field(other.field) and self.canonical_terms() == other.canonical_terms()

    def __hash__(self):
        return hash(self.canonical_terms())

    def __str__(self):
        """Display with coefficients as canonical integers, e.g. '2 + 4x + x^4'."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            ci = int(c)
            if e == 0:
                parts.append(str(ci))
            else:
                coeff = "" if ci == 1 else str(ci)
                parts.append(f"{coeff}x" if e == 1 else f"{coeff}x^{e}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SparsePoly({self})"
