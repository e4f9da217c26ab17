"""The subgroup mu_{q+1} of F_{q^2}^*, its coset partition by a primitive
d-th root of unity, and the three permutation criteria that act on it.

mu_{q+1} = {x : x^(q+1) = 1} is cyclic of order q+1, generated by
gamma = g^(q-1) for a generator g of the full multiplicative group.  For a
divisor d of q+1, omega = gamma^((q+1)/d) has order exactly d and the cosets
omega^i * mu_{(q+1)/d} tile the subgroup precisely when gcd(d, (q+1)/d) = 1.

Every root is gamma^i for one index i in [0, q]: MuContext.log reads i off a
dict, MuContext.walk(e) gathers x^e = gamma^(e*i mod (q+1)) in index order
from the roots, listed once by the field's power walk (power_columns).  A
branch A * x^n sends gamma^i to gamma^(log A + n*i), so the piecewise and
omega-monomial maps are index maps on Z_{q+1} (Wang's cyclotomic mappings),
their branch read off i by CosetPartition.coset: no per-root field power.
agw_check is the oracle's split test (oracle.agw_failure), on the oracle's
discrete logs of h at the roots (oracle.h_logs).  make_mu builds one
MuContext per field.

All decision procedures here are exact: gcd conditions are checked by integer
arithmetic, bijectivity by marking all q+1 image indices (oracle.distinct).
"""

from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional

from .errors import NotADivisor, NotInMu, PartitionNotDisjoint
from .ffcore import Element
from .oracle import agw_failure, distinct, h_logs


class MuContext:
    """The (q+1)-th roots of unity gamma^0, ..., gamma^q, listed once by
    FieldSpec.power_columns and indexed by the dict {int(gamma^i): i}."""

    __slots__ = ("field", "gamma", "order", "_elements", "_index")

    def __init__(self, field, gamma):
        self.field = field
        self.gamma = gamma
        self.order = field.q + 1
        self._elements = [Element(field, coeffs)
                          for coeffs in zip(*field.power_columns(gamma, self.order))]
        self._index = {int(x): i for i, x in enumerate(self._elements)}

    def walk(self, e):
        """[(gamma^e)^i for i in 0..q], i.e. x^e for x = gamma^i in index
        order; e may be negative.  (gamma^e)^i is the root of index e*i mod
        (q+1), so the walk is a gather from elements()."""
        elements, order = self._elements, self.order
        return [elements[e * i % order] for i in range(order)]

    def elements(self):
        """All q+1 roots, as powers gamma^0, gamma^1, ..., gamma^q."""
        return self._elements

    def log(self, x):
        """The i in [0, q] with x = gamma^i; NotInMu if x is not a root."""
        i = self._index.get(int(x))
        if i is None:
            raise NotInMu(f"{x!r} is not a (q+1)-th root of unity")
        return i

    def __contains__(self, x):
        return int(x) in self._index


@lru_cache(maxsize=None)
def make_mu(field):
    """The field's one MuContext; gamma = generator^(q-1) has order q+1."""
    return MuContext(field, field.generator ** (field.q - 1))


class CosetPartition:
    """The decomposition mu_{q+1} = union of omega^i * mu_{(q+1)/d}.

    omega = gamma^((q+1)/d) is a primitive d-th root of unity; s is the
    residue of (q+1)/d mod d normalized into [1, d].  The cosets are pairwise
    disjoint iff gcd(d, (q+1)/d) = 1 (the `disjoint` flag); coset-indexed
    operations refuse non-disjoint partitions.
    """

    __slots__ = ("mu", "d", "omega", "s", "subgroup_order", "disjoint", "_s_inverse")

    def __init__(self, mu, d):
        order = mu.order
        if d < 1 or order % d != 0:
            raise NotADivisor(d, order)
        self.mu = mu
        self.d = d
        self.subgroup_order = order // d
        self.omega = self.omega_pow(1)
        self.s = self.subgroup_order % d or d
        self.disjoint = gcd(d, self.subgroup_order) == 1
        self._s_inverse = pow(self.s, -1, d) if self.disjoint else None

    def omega_pow(self, j):
        return self.mu.elements()[j % self.d * self.subgroup_order]

    def coset(self, m):
        """The i in [0, d) with gamma^m in omega^i * mu_{(q+1)/d}: that coset
        is {gamma^(i*(q+1)/d + d*j)}, so m = i*s (mod d) and i = m * s^-1."""
        if self._s_inverse is None:
            raise PartitionNotDisjoint(f"d={self.d}, subgroup order {self.subgroup_order}")
        return m * self._s_inverse % self.d


def make_partition(mu, d):
    return CosetPartition(mu, d)


def coset_index(part, x):
    """The i in [0, d) with x in omega^i * mu_{(q+1)/d} (CosetPartition.coset)."""
    return part.coset(part.mu.log(x))


class MonomialPiece(NamedTuple):
    """One monomial branch A * x^exponent of a piecewise map on mu_{q+1}."""

    A: object
    exponent: int


class CheckResult(NamedTuple):
    """Boolean verdict plus a reason code for the first failed condition."""

    ok: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.ok


def agw_check(field, r, h):
    """Does f(x) = x^r * h(x^(q-1)) permute F_{q^2}?

    Decided through the subgroup route: gcd(r, q-1) = 1, h nonvanishing on
    mu_{q+1}, and x -> x^r * h(x)^(q-1) a bijection of mu_{q+1} (tested by
    enumerating all q+1 images).  A vanishing h yields a False verdict with
    reason code rather than an error.

    The oracle's LH[i] = log h(gamma^i) (oracle.h_logs) gives both: h
    vanishes at gamma^i iff LH[i] is the zero label n, and otherwise
    h(gamma^i)^(q-1) = g^((q-1)*LH[i]) = gamma^LH[i], so the image of
    x = gamma^i is gamma^(r*i + LH[i]) and the test is that
    i -> r*i + LH[i] mod (q+1) is injective: the oracle's split test
    (oracle.agw_failure), whose reason text is the reason code.
    """
    reason = agw_failure(field.q, r, h_logs(field, h.terms))
    return CheckResult(reason is None, reason)


def piecewise_check(part, pieces):
    """Permutation test for g(x) = A_i * x^(r_i) on the i-th coset.

    True iff every gcd(r_i, (q+1)/d) = 1 and the d image sets are pairwise
    disjoint: the index map gamma^m -> gamma^(log A_j + r_j*m), j the coset
    of gamma^m, is injective on the q+1 indices.
    """
    if not part.disjoint:
        raise PartitionNotDisjoint(f"d={part.d}, subgroup order {part.subgroup_order}")
    if len(pieces) != part.d:
        raise ValueError(f"expected {part.d} pieces, got {len(pieces)}")
    mu = part.mu
    branches = [(mu.log(piece.A), piece.exponent) for piece in pieces]
    if any(gcd(n, part.subgroup_order) != 1 for _, n in branches):
        return False
    return distinct(mu.order, ((log_a + n * m) % mu.order for m in range(mu.order)
                               for log_a, n in [branches[part.coset(m)]]))


def omega_monomial_check(part, A, k, n):
    """gcd criterion for g(omega^i y) = A * omega^(i k) * y^n permuting mu_{q+1}:
    gcd((q+1)/d, n) = 1 and gcd(k, d) = 1."""
    if A not in part.mu:
        raise NotInMu(f"constant {A!r}")
    if not part.disjoint:
        raise PartitionNotDisjoint(f"d={part.d}, subgroup order {part.subgroup_order}")
    return gcd(part.subgroup_order, n) == 1 and gcd(k, part.d) == 1


def materialize_omega_monomial(part, A, k, n):
    """The actual map g for omega_monomial_check, as an element function,
    so the brute-force oracle can confirm the gcd criterion both ways.  On
    the j-th coset y = gamma^(m - j*(q+1)/d) for x = gamma^m, so g(x) =
    gamma^(log A + j*(k-n)*(q+1)/d + n*m)."""
    mu, v = part.mu, part.subgroup_order
    log_a = mu.log(A)

    def g(x):
        m = mu.log(x)
        return mu.elements()[(log_a + part.coset(m) * (k - n) * v + n * m) % mu.order]

    return g


def induced_pieces(part, A, k, n):
    """The omega-monomial map as coset-wise pieces acting on x itself.

    On the i-th coset, A * omega^(i k) * y^n with y = x * omega^(-i) equals
    A * omega^(i (k - n)) * x^n, so the piece constants carry the twist k - n.
    This states the step that joins the paper's two criteria on mu_{q+1}:
    a map that is a monomial in y on the cosets of a partition is
    piecewise monomial in x itself, so omega_monomial_check and
    piecewise_check must agree on it.
    """
    return [MonomialPiece(A * part.omega_pow(i * (k - n) % part.d), n) for i in range(part.d)]
