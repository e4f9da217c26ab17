"""The six trinomial families T1..T6 over F_{q^2}: construction, hypothesis
validation, and the gcd predicates deciding permutation-hood.

Every family is built from a trinomial h and tested through f(x) =
x^r * h(x^(q-1)).  With v = (q+1)/d, v1 = (d-1)*v, u = v+1, u1 = v1+1 and
s = ((q+1)/d mod d) in [1, d], the shapes are

    T1 (d even): h = c + x^(v1+k) + x^(q*v+k)
    T2 (d odd):  h = c + x^(u1+k) + x^(q*u+2+k)
    T3 (any d):  h = c + x^(v1+k) - x^(q*v+k)
    T4 (any d):  h = c + x^(u1+k) - x^(q*u+2+k)
    T5 (d = 4):  h = c + x^(u+k) + x^(q*u+k+2),   u = (q+5)/4
    T6 (d = 2):  h = c + x^u * (x^((q+1)/2 * v) - 1),  u, v odd parameters

T5's u equals the generic v+1 at d = 4; T6 carries its own odd exponents u, v
instead of the derived ones.  The gcd predicates are exact integer
arithmetic; the oracle module provides the independent exhaustive check.
"""

from functools import lru_cache
from math import gcd
from typing import NamedTuple, Tuple

from .errors import BadCongruence, HypothesesNotSatisfied
from .ffcore import Element, FieldSpec
from .oracle import is_permutation_of_field
from .sparsepoly import SparsePoly
from .unity import make_mu, make_partition

TAGS = ("T1", "T2", "T3", "T4", "T5", "T6")


class DerivedExponents(NamedTuple):
    v: int
    v1: int
    u: int
    u1: int
    s: int


@lru_cache(maxsize=256)
def derived_exponents(q, d):
    """v = (q+1)/d, v1 = (d-1)v, u = v+1, u1 = v1+1, s = v mod d in [1, d];
    cached, as a sweep asks for the same (q, d) at every r."""
    v = (q + 1) // d
    v1 = (d - 1) * v
    return DerivedExponents(v=v, v1=v1, u=v + 1, u1=v1 + 1, s=v % d or d)


class _Params(NamedTuple):
    tag: str
    field: FieldSpec
    r: int
    c: Element
    d: int = 0
    k: int = 0
    u: int = 0
    v: int = 0


class FamilyParams(_Params):
    """A family tag plus everything needed to build h and f.

    d is a free parameter for T1..T4, hard-wired to 4 for T5 and 2 for T6.
    u and v are T6's odd exponents and ignored elsewhere.  Derived exponents
    are always recomputed from (q, d), never stored.
    """

    __slots__ = ()

    def __new__(cls, tag, field, r, c, d=0, k=0, u=0, v=0):
        if tag not in TAGS:
            raise ValueError(f"unknown family tag {tag!r}")
        if tag == "T5":
            d = 4
        elif tag == "T6":
            d = 2
        elif d < 1:
            raise ValueError(f"{tag} requires an explicit d >= 1")
        return super().__new__(cls, tag, field, r, c, d, k, u, v)

    def derived(self):
        return derived_exponents(self.field.q, self.d)


class HypothesisReport(NamedTuple):
    """Validation outcome: satisfied iff the violation list is empty."""

    violations: Tuple[str, ...]

    @property
    def satisfied(self):
        return not self.violations

    def __bool__(self):
        return self.satisfied


def _c_power_is_one(field, c, m):
    """(c/2)^((q+1)/m) == 1; false for c == 0.

    Tested by discrete logs, with no field power: with e = (q+1)/m and
    n = q^2 - 1, (c/2)^e = 1 iff e*(log c - log 2) = 0 (mod n).  The field's
    log provider labels zero n, and 2 is nonzero in odd characteristic.
    """
    logs, n = field.logs(), field.q2 - 1
    log_c = logs.log(c)
    return log_c != n and (field.q + 1) // m * (log_c - logs.log(field.from_int(2))) % n == 0


def validate(params):
    """Check exactly the stated hypotheses of the family; reports every
    violation rather than raising."""
    q = params.field.q
    d, k = params.d, params.k
    violations = []
    tag = params.tag
    if tag in ("T1", "T2", "T3", "T4"):
        if (q + 1) % d != 0:
            violations.append("q != -1 (mod d)")
        if tag == "T1" and d % 2 != 0:
            violations.append("d is not even")
        if tag == "T2" and d % 2 != 1:
            violations.append("d is not odd")
        if tag in ("T1", "T2"):
            if q % 4 != 1:
                violations.append("q != 1 (mod 4)")
            if (q + 1) % d == 0 and gcd((q + 1) // d, d) != 1:
                violations.append("gcd((q+1)/d, d) != 1")
            if not _c_power_is_one(params.field, params.c, 2):
                violations.append("(c/2)^((q+1)/2) != 1")
            if k % 2 != 1:
                violations.append("k is not odd")
        else:
            if params.c.is_zero():
                violations.append("c == 0")
    elif tag == "T5":
        if q % 8 != 3:
            violations.append("q != 3 (mod 8)")
        if not _c_power_is_one(params.field, params.c, 4):
            violations.append("(c/2)^((q+1)/4) != 1")
        if k % 2 != 0:
            violations.append("k is not even")
    else:  # T6
        if q % 2 != 1:
            violations.append("q is not odd")
        if not _c_power_is_one(params.field, params.c, 2):
            violations.append("(c/2)^((q+1)/2) != 1")
        if params.u % 2 != 1:
            violations.append("u is not odd")
        if params.v % 2 != 1:
            violations.append("v is not odd")
    return HypothesisReport(tuple(violations))


def build_h(params):
    """The literal trinomial of the family, unreduced."""
    f = params.field
    q = f.q
    one = f.one
    c = params.c
    k = params.k
    de = params.derived()
    tag = params.tag
    if tag == "T1":
        terms = [(0, c), (de.v1 + k, one), (q * de.v + k, one)]
    elif tag == "T2":
        terms = [(0, c), (de.u1 + k, one), (q * de.u + 2 + k, one)]
    elif tag == "T3":
        terms = [(0, c), (de.v1 + k, one), (q * de.v + k, -one)]
    elif tag == "T4":
        terms = [(0, c), (de.u1 + k, one), (q * de.u + 2 + k, -one)]
    elif tag == "T5":
        terms = [(0, c), (de.u + k, one), (q * de.u + k + 2, one)]
    else:  # T6: c + x^u (x^((q+1)/2 v) - 1)
        terms = [(0, c), (params.u, -one), (params.u + (q + 1) // 2 * params.v, one)]
    return SparsePoly(f, terms)


def build_f(params):
    """f(x) = x^r * h(x^(q-1)), unreduced; fold with .reduce_mod() for the
    functional (mod x^(q^2) - x) view."""
    if params.r < 1:
        raise ValueError(f"r must be >= 1, got {params.r}")
    return build_h(params).compose_power(params.r, params.field.q - 1)


def predicate(params):
    """Whether f permutes F_{q^2}: validate(params), then gcd_criterion(params).

    Raises HypothesesNotSatisfied when the hypotheses fail; otherwise the
    returned boolean equals the oracle verdict.
    """
    report = validate(params)
    if not report.satisfied:
        raise HypothesesNotSatisfied(report.violations)
    return gcd_criterion(params)


def gcd_criterion(params):
    """The family's exact gcd condition on r for f permuting F_{q^2}.

    Meaningful only where validate(params) holds, which it does not check.
    The hypotheses depend on (q, d, k, u, v, c) and not on r, so a sweep
    validates each such group once and calls r_criterion for every r.
    """
    return r_criterion(params.tag, params.field.q, params.d, params.k, params.u, params.r)


def r_criterion(tag, q, d, k, u, r):
    """gcd_criterion from plain ints, with d as FamilyParams holds it (4 for
    T5, 2 for T6); k is unused on T6 and u off it."""
    de = derived_exponents(q, d)
    if tag == "T1":
        return (
            gcd(r - k, de.v) == 1
            and gcd(r, q - 1) == 1
            and gcd(de.s + r - k, d) == 1
        )
    if tag == "T2":
        return (
            gcd(r - k - 1, de.v) == 1
            and gcd(r, q - 1) == 1
            and gcd(de.s + r - k - 1, d) == 1
        )
    if tag in ("T3", "T4"):
        return gcd(r, q * q - 1) == 1
    if tag == "T5":
        return gcd(r, (q * q - 1) // 4) == 1 and gcd(r - k - 1, (q + 1) // 4) == 1
    return gcd(r, (q * q - 1) // 2) == 1 and gcd(r - u, (q + 1) // 2) == 1


# ---------------------------------------------------------------------------
# identities the family proofs rest on, checked exhaustively on mu_{q+1}
# ---------------------------------------------------------------------------

def lemma_v_identity(field, d, k):
    """x^(v1+k) == x^(q*v+k) on all of mu_{q+1}, and x^(-v1) == omega^(i*s)
    on the i-th coset."""
    de = derived_exponents(field.q, d)
    return _coset_identity(field, d, de.s, de.v1 + k, field.q * de.v + k, de.v1, False)


def lemma_u_identity(field, d, k):
    """x^(u1+k) == x^(q*u+k+2) on all of mu_{q+1}, and x^(-u1) ==
    omega^(i*s) * x^(-1) on the i-th coset."""
    de = derived_exponents(field.q, d)
    return _coset_identity(field, d, de.s, de.u1 + k, field.q * de.u + k + 2, de.u1, True)


def _coset_identity(field, d, s, a, b, e, times_inverse):
    """x^a == x^b on all of mu_{q+1}, and x^(-e) == omega^(i*s), times x^(-1)
    if times_inverse, on the i-th coset of the d-partition."""
    mu = make_mu(field)
    part = make_partition(mu, d)  # part.coset refuses a non-disjoint partition
    walks = zip(mu.walk(a), mu.walk(b), mu.walk(-e), mu.walk(-1 if times_inverse else 0))
    for m, (xa, xb, x_minus_e, factor) in enumerate(walks):
        if xa != xb or x_minus_e != part.omega_pow(part.coset(m) * s) * factor:
            return False
    return True


def lemma_d4_identity(field):
    """For q = 3 (mod 8) and u = (q+5)/4: classify each x in mu_{q+1} by
    x^((q+1)/4) in {1, -1, omega, -omega} and verify x^u == x^(2+q*u) ==
    x^(2-u) on the plain classes, with a minus sign on the primed ones."""
    q = field.q
    if q % 8 != 3:
        raise BadCongruence(q, "q = 3 (mod 8)")
    mu = make_mu(field)
    omega = make_partition(mu, 4).omega
    one = field.one
    minus_one = -one
    u = (q + 5) // 4
    quarter = (q + 1) // 4
    class_sizes = {0: 0, 1: 0, 2: 0, 3: 0}
    for z, lhs, r1, r2 in zip(mu.walk(quarter), mu.walk(u), mu.walk(2 + q * u), mu.walk(2 - u)):
        if z == one or z == minus_one:
            class_sizes[0 if z == one else 1] += 1
            if lhs != r1 or lhs != r2:
                return False
        elif z == omega or z == -omega:
            class_sizes[2 if z == omega else 3] += 1
            if lhs != -r1 or lhs != -r2:
                return False
        else:
            return False
    return all(size == quarter for size in class_sizes.values())


def corollary_negative(field, u, v, c, r_range):
    """For q = 3 (mod 4), no exponent r in r_range makes the T6-shaped f a
    permutation: checked by running the exhaustive oracle for every r.

    Also mirrors the structural parity argument as assertions: (q+1)/2 is
    even, so gcd(r, (q^2-1)/2) = 1 forces r odd, making r - u even and
    gcd(r-u, (q+1)/2) >= 2 -- the gcd criterion is identically false.
    """
    q = field.q
    if q % 4 != 3:
        raise BadCongruence(q, "q = 3 (mod 4)")
    if u % 2 != 1 or v % 2 != 1:
        raise ValueError("u and v must be odd")
    if not _c_power_is_one(field, c, 2):
        raise ValueError("(c/2)^((q+1)/2) must equal 1")
    assert (q + 1) // 2 % 2 == 0, "q = 3 (mod 4) makes (q+1)/2 even"
    for r in r_range:
        params = FamilyParams(tag="T6", field=field, r=r, c=c, u=u, v=v)
        assert not predicate(params), f"gcd criterion must be false at r={r}"
        if is_permutation_of_field(field, build_f(params)).is_bijection:
            return False
    return True


# ---------------------------------------------------------------------------
# sweep helpers
# ---------------------------------------------------------------------------

def valid_c_count(field, tag):
    """len(valid_c_values(field, tag)), known before the list is built."""
    if tag in ("T3", "T4"):
        return field.q2 - 1
    # (q+1)//m values even where m does not divide q+1 (T5 at q = 1 mod 4)
    return (field.q + 1) // (4 if tag == "T5" else 2)


def valid_c_values(field, tag):
    """Every c satisfying the family's c-hypothesis, deterministically ordered.

    For T1/T2/T6 the condition (c/2)^((q+1)/2) = 1 has solution set exactly
    2 * mu_{(q+1)/2}; similarly with m = 4 for T5.  T3/T4 accept every
    nonzero c, enumerated in canonical order.
    """
    count = valid_c_count(field, tag)
    if tag in ("T3", "T4"):
        return [field.from_int(n) for n in range(1, count + 1)]
    two = field.from_int(2)
    return [two * x for x in make_mu(field).walk(4 if tag == "T5" else 2)[:count]]


def default_k_window(tag, d):
    """One full period of k values with the parity the family requires, as a
    range, so its length is known before it is built."""
    if tag in ("T1", "T2"):
        return range(1, 2 * d, 2)
    if tag == "T5":
        return range(0, 8, 2)
    if tag in ("T3", "T4"):
        return range(0, 2 * d)
    return range(0)
