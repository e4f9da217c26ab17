"""Ground-truth engines: exhaustive permutation testing and pointwise equality.

Everything here decides by enumeration, and nothing assumes the shape of the
polynomial.  The bijection test on the whole field, permutes(field, terms),
takes the terms of a polynomial folded mod n = q^2 - 1, as
SparsePoly.reduce_mod leaves them, and reads nothing else;
is_permutation_of_field folds a SparsePoly, calls it and reports the
verdict, and evaluate_on_field folds and evaluates term by term.  f(0) is
read from the constant term; the nonzero inputs are walked in generator
order x = g^t, t = 0, 1, ..., n - 1, where a term c*x^e equals c*g^(t*e).
Every image is labelled by its discrete log log f(g^t), with n for a zero
image, from the field's one log provider (FieldSpec.logs(): two-level logs
from O(q) lists, which add a polynomial's terms by Zech logarithms).

The walk is a base walk and shifted copies of it.  Let e_0 be the least
folded exponent.  When q - 1 divides every difference e_j - e_0, as it does
for every x^r h(x^(q-1)) and every monomial, the walk splits into D = q - 1
runs of M = n/D = q + 1 points: each e_j*M = e_0*M (mod n), so
f(g^(t+M)) = g^(e_0*M) * f(g^t) for every t.  Only the base run t < M is
evaluated.  Then f = x^(e_0) H(x^(q-1)) with H = sum c_j y^(k_j),
k_j = (e_j - e_0)/(q - 1), so log f(g^t) = t*e_0 + LH[t] mod n, where
LH[t] = log H(gamma^t) and gamma = g^(q-1).  LH depends on H alone, and is
cached in the field's log provider (lh_cache) under H's terms (k_j, c_j),
read off the folded polynomial: a sweep over r reuses it, and the bijection
test adds t*e_0 to each LH[t] as it marks it, M integer adds per e_0.  LH
is the provider's labels(q - 1, H, q + 1).  Run k = 1..D-1
(t = kM..kM+M-1) is the base run shifted: each label plus k*e_0*M mod n,
the zero label n staying n.  D is read off the folded exponents alone,
never off a family.  Any other polynomial has D = 1: its base run is the
whole walk, the provider's labels(1, f, n), streamed.  evaluate_on_field
reads the runs in t order as one label sequence and decodes each label
through the provider's exps(), the decoded field, which the provider keeps
up to a size bound.

Labels name images one to one, so the bijection test asks whether the q^2
labels are pairwise distinct, and stops at the first repeat it finds.  An
unsplit walk marks one byte per label in a bytearray.  A split walk needs
only its base run.  Run k is the base run shifted by k*s, s = e_0*M mod n,
so run n/gcd(s, n) is the base run again; when that order,
(q - 1)/gcd(e_0, q - 1), is below D, the walk repeats every base label, and
the test says so before it reads one.  Otherwise the order is exactly D, so
the D shifts k*s are the one subgroup of Z_n of that order, the multiples
of M.  A zero label n in the base run is fixed by every shift, so run 1
repeats it.  Without one, the labels of the walk are B_t + j*M mod n for
t < M and j < D, with B_t = t*e_0 + LH[t], and two of them are equal iff
their B_t are equal mod M.  So the walk's n labels are pairwise distinct
iff gcd(e_0, q - 1) = 1, no LH[t] is n and the M residues B_t mod M are
distinct: one byte mark per base point.  That is the test of Akbary, Ghioca
and Wang (FFA 17, 2011) that x^(e_0) H(x^(q-1)) permutes F_{q^2}, in index
form, and agw_failure(q, e_0, LH) is its one copy, which unity.agw_check
shares.  The labels then cover all of Z_n, so the label of f(0) must be n,
and it is: a constant term makes e_0 = 0, and gcd(0, q - 1) = q - 1 > 1.

So past the order exit the verdict depends on e_0 only through
e_0 mod (q + 1), which fixes the residues B_t mod M.  H's lh_cache entry
keeps LH beside a bytearray(q + 1) of verdicts, one byte per class
e_0 mod (q + 1) (unknown, collides, permutes): permutes takes the order
exit before it reads LH, and runs the AGW test once per class of one H.  A
sweep over r then walks at most (q + 1)/2 times per H, however many r it
holds, as gcd(e_0, q - 1) = 1 leaves the odd classes only
(class_verdicts).  The key is H's terms and e_0, read off the folded
polynomial, never a family.  A non-bijection's least colliding pair costs
one more full evaluation, paid only by a caller who reads it.
"""

from array import array
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd
from typing import Callable, NamedTuple, Optional, Tuple


class _Verdict(NamedTuple):
    is_bijection: bool
    domain_size: int
    outside_mu: Optional[int] = None


class PermutationReport(_Verdict):
    """Verdict of an exhaustive bijection test.

    first_collision is the lexicographically least pair of canonical input
    encodings with equal images (None if there is none), so diagnostics are
    reproducible run to run; find_collision computes it on first read.
    outside_mu (subgroup tests only) holds the least canonical input whose
    image left the subgroup; it also counts as a non-bijection.  Equality,
    hashing and repr read the three verdict fields only, and no attribute
    can be assigned.
    """

    def __new__(cls, is_bijection, domain_size, outside_mu=None,
                find_collision: Callable[[], Optional[Tuple[int, int]]] = lambda: None):
        report = super().__new__(cls, is_bijection, domain_size, outside_mu)
        report.__dict__["find_collision"] = find_collision
        return report

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: PermutationReport is immutable")

    @cached_property
    def first_collision(self):
        return self.find_collision()

    def __bool__(self):
        return self.is_bijection


def evaluate(field, poly, x):
    """Exact value of a sparse polynomial at x: sum of c * x^e term by term.

    Follows the power conventions x^0 == 1 (including x == 0) and 0^e == 0
    for e > 0.
    """
    acc = field.zero
    for e, c in poly.terms:
        acc = acc + c * x ** e
    return acc


class _Walk(NamedTuple):
    """The walk over t = 0..n-1 as D runs of M = n/D points; run k is the
    base run t < M shifted k times, by the label offset step*M mod n each
    time.  The base run's label at t is t*step + base[t] mod n, the zero
    label n staying n: on a split walk base is LH and step is e_0, on any
    other walk base streams every label and step is 0 (module docstring)."""

    zero_label: int  # the label of f(0)
    base: object
    runs: int  # D
    step: int = 0


# LH arrays are kept per field in its log provider's lh_cache, keyed by H's
# terms, each beside the verdict bytes of H's classes e_0 mod (q + 1), so an
# entry holds 9 bytes per label (8 of LH, 1 of verdict); the dict is emptied
# before it grows past about LH_CACHE_LABELS labels, and an LH's verdicts go
# with it
LH_CACHE_LABELS = 1 << 20

# the verdict byte of a class e_0 mod (q + 1) of one H (permutes)
_UNKNOWN, _COLLIDES, _PERMUTES = 0, 1, 2


def _walk(field, terms):
    """The walk of the folded polynomial with these terms (evaluate_on_field,
    and permutes when unsplit): a split walk from the cached LH of its H, or
    else every point's label, streamed."""
    n, q = field.q2 - 1, field.q
    logs = field.logs()
    e0 = terms[0][0] if terms else 0
    # f(0) is the constant term; without one it is 0, the label n
    zero_label = logs.log(terms[0][1]) if terms and not e0 else n
    # D = q - 1 runs of M = q + 1 points when q - 1 divides every e_j - e_0
    if not any([(e - e0) % (q - 1) for e, _ in terms]):
        return _Walk(zero_label, _split_entry(field, terms, e0)[0], q - 1, e0)
    return _Walk(zero_label, logs.labels(1, terms, n), 1)


def _split_entry(field, terms, e0):
    """The lh_cache entry (_lh_entry) of H, for the folded terms of a split
    f = x^(e_0) H(x^(q-1)).  The key is built here, so that a cache hit
    builds no H terms."""
    q = field.q
    entry = field.logs().lh_cache.get(tuple([((e - e0) // (q - 1), c.coeffs) for e, c in terms]))
    if entry is None:
        entry = _lh_entry(field, [((e - e0) // (q - 1), c) for e, c in terms])
    return entry


def _lh_entry(field, h_terms):
    """H's entry (LH, verdicts) in the field's log provider's lh_cache, under
    the terms' exponents and coordinates; H = sum c*y^k over the (k, c) in
    h_terms (nonzero Elements c).  LH is h_logs'; verdicts is a
    bytearray(q + 1) of the verdict bytes of H's classes e_0 mod (q + 1),
    _UNKNOWN until permutes or class_verdicts decides one."""
    logs = field.logs()
    key = tuple([(k, c.coeffs) for k, c in h_terms])
    cache = logs.lh_cache
    entry = cache.get(key)
    if entry is None:
        q = field.q
        entry = (array("q", logs.labels(q - 1, h_terms, q + 1)), bytearray(q + 1))
        if len(cache) * (q + 1) >= LH_CACHE_LABELS:
            cache.clear()
        cache[key] = entry
    return entry


def h_logs(field, h_terms):
    """LH[t] = log H(gamma^t) for t = 0..q (n for a zero), gamma = g^(q-1),
    H = sum c*y^k over the (k, c) in h_terms (nonzero Elements c); cached in
    the field's log provider (_lh_entry)."""
    return _lh_entry(field, h_terms)[0]


def evaluate_on_field(field, poly):
    """Images of all q^2 elements, indexed by canonical input encoding.  The
    input x = g^t has the label t, so one decoded list serves inputs and
    images alike."""
    walk = _walk(field, poly.reduce_mod().terms)
    n = field.q2 - 1
    exp = field.logs().exps()  # exp[n] = 0
    images = [0] * field.q2
    images[0] = exp[walk.zero_label]
    base = [label if label == n else (t * walk.step + label) % n
            for t, label in enumerate(walk.base)]
    t = 0
    for k in range(walk.runs):
        shift = k * walk.step * (n // walk.runs) % n
        for label in base:
            images[exp[t]] = exp[label if label == n else (label + shift) % n]
            t += 1
    return images


def distinct(size, labels):
    """Are the labels, each in range(size), pairwise distinct?  One byte
    per label; stops at the first repeat."""
    seen = bytearray(size)
    for label in labels:
        if seen[label]:
            return False
        seen[label] = 1
    return True


def _least_collision(inputs, images):
    """Lexicographically least (x1, x2) with x1 < x2 and equal images, or
    None; the inputs ascend, and images lists their images in that order."""
    first_preimage = {}
    best = None
    for x, y in zip(inputs, images):
        if y in first_preimage:
            pair = (first_preimage[y], x)
            if best is None or pair < best:
                best = pair
        else:
            first_preimage[y] = x
    return best


def permutes(field, terms):
    """Does the folded polynomial with these terms permute F_{q^2}?  terms
    are its (e, c) pairs as SparsePoly.reduce_mod leaves them: exponents
    ascending, none repeated, none above n = q^2 - 1, and nonzero Element
    coefficients.  The walk reads nothing else.

    An unsplit walk stops at the first repeated image, one byte per label
    (distinct).  A split walk x^(e_0) H(x^(q-1)) takes the order exit,
    gcd(e_0, q - 1) != 1, before it reads LH; a constant term makes e_0 = 0,
    so the exit refuses it too.  Otherwise the verdict is the AGW test
    (agw_failure), kept in H's lh_cache entry as the verdict byte of the
    class e_0 mod (q + 1), and read from there when the class comes again.
    """
    q = field.q
    e0 = terms[0][0] if terms else 0
    if any([(e - e0) % (q - 1) for e, _ in terms]):
        walk = _walk(field, terms)
        return distinct(field.q2, chain((walk.zero_label,), walk.base))
    if gcd(e0, q - 1) != 1:
        return False
    return _class_verdict(q, e0, _split_entry(field, terms, e0))


def _class_verdict(q, e0, entry):
    """Does x^(e_0) H(x^(q-1)) permute F_{q^2}, gcd(e_0, q - 1) being 1?
    entry is H's (LH, verdicts); the verdict byte of e_0 mod (q + 1) is
    read, or on _UNKNOWN decided by agw_failure and kept."""
    lh, verdicts = entry
    m = e0 % (q + 1)
    if verdicts[m] == _UNKNOWN:
        verdicts[m] = _PERMUTES if agw_failure(q, e0, lh) is None else _COLLIDES
    return verdicts[m] == _PERMUTES


def class_verdicts(field, h_terms):
    """{rho: does x^(e_0) H(x^(q-1)) permute F_{q^2}} for every class
    rho = e_0 mod (q + 1) of exponents e_0 with gcd(e_0, q - 1) = 1, H as in
    h_logs; every other e_0 fails the order exit.  Those classes are the odd
    rho: q + 1 and q - 1 are even and q + 1 = 2 (mod q - 1), so
    rho + j(q + 1) for j < (q - 1)/2 meets every residue of rho's parity
    mod q - 1.  Each class is decided on its least such e_0 (_class_verdict),
    O(q) each and O(q^2) in all, and its verdict byte is kept."""
    q = field.q
    entry = _lh_entry(field, h_terms)
    return {rho: _class_verdict(q, next(e for e in range(rho, field.q2, q + 1) if gcd(e, q - 1) == 1),
                                entry)
            for rho in range(1, q + 1, 2)}


def agw_failure(q, e0, lh):
    """The first condition of the test of Akbary, Ghioca and Wang that
    x^(e_0) H(x^(q-1)) fails to meet as a permutation of F_{q^2}, as a
    reason text, or None if it meets them all.  lh lists LH[t] = log
    H(gamma^t) for t = 0..q, n = q^2 - 1 for a zero (h_logs).  In order:
    gcd(e_0, q - 1) = 1, so that the shift of a split walk has order D
    (module docstring); H has no zero on mu_{q+1}, no LH[t] being n; and the
    residues (t*e_0 + LH[t]) mod (q + 1) are distinct, so that
    x^(e_0) H(x)^(q-1) permutes mu_{q+1}."""
    m = q + 1
    if gcd(e0, q - 1) != 1:
        return "gcd(r, q-1) != 1"
    if m * (q - 1) in lh:
        return "h vanishes on mu_{q+1}"
    if not distinct(m, ((t * e0 + label) % m for t, label in enumerate(lh))):
        return "x^r h(x)^(q-1) is not a bijection of mu_{q+1}"
    return None


def is_permutation_of_field(field, poly):
    """permutes(field, poly folded mod n) as a PermutationReport; a
    non-bijection finds its least colliding pair on first read."""
    if permutes(field, poly.reduce_mod().terms):
        return _bijection(field.q2)
    return PermutationReport(
        is_bijection=False,
        domain_size=field.q2,
        find_collision=lambda: _least_collision(range(field.q2), evaluate_on_field(field, poly)),
    )


@lru_cache(maxsize=None)
def _bijection(domain_size):
    """The report of a bijection on domain_size points: immutable, and its
    first_collision is None, so one instance serves every call."""
    return PermutationReport(is_bijection=True, domain_size=domain_size)


def is_permutation_of_mu(mu, fn: Callable):
    """Does the element map fn permute the (q+1)-th roots of unity?

    Bijection iff all q+1 images lie in the subgroup and their indices are
    distinct.  An image outside the subgroup is reported via outside_mu and
    counts as a non-bijection.
    """
    domain = sorted(mu.elements(), key=int)
    images = [fn(x) for x in domain]
    outside = next((int(x) for x, y in zip(domain, images) if y not in mu), None)
    return PermutationReport(
        is_bijection=outside is None and distinct(mu.order, map(mu.log, images)),
        domain_size=mu.order,
        outside_mu=outside,
        find_collision=lambda: _least_collision(map(int, domain), map(int, images)),
    )


def pointwise_equal(field, f1, f2):
    """True iff the two polynomials agree at every element of F_{q^2}.

    Agreement everywhere is exactly congruence mod x^(q^2) - x.
    """
    return evaluate_on_field(field, f1) == evaluate_on_field(field, f2)
