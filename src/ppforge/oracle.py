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
test adds t*e_0 to each LH[t] as it marks it, M integer adds per r.  LH
is the provider's labels(q - 1, H, q + 1).  Run k = 1..D-1
(t = kM..kM+M-1) is the base run shifted: each label plus k*e_0*M mod n,
the zero label n staying n.  D is read off the folded exponents alone,
never off a family.  Any other polynomial has D = 1: its base run is the
whole walk, the provider's labels(1, f, n), streamed.  evaluate_on_field
reads the runs in t order as one label sequence and decodes each label
through the provider's exps(), the decoded field, which the provider keeps
up to a size bound.

Labels name images one to one, so the bijection test marks every one of the
q^2 labels and stops at the first repeat.  It marks one byte per label in a
bytearray, except for a split walk.  Run k of that walk is the base run
shifted by k*s, s = e_0*M mod n, so run n/gcd(s, n) is the base run again;
when that order, (q - 1)/gcd(e_0, q - 1), is below D, the walk repeats every
base label, and the test says so before it marks any.  Otherwise the walk
marks the label of f(0) and then the base run's labels, one at a time, as
bits b < n of an int; it stops at a repeat, or at a zero image, which every
shift fixes, so run 1 would repeat it.  Run k is then the n-bit set base of
the base run's labels rotated by k*s, so the union U_m of runs 0..m-1,
rotated by m*s, is the union of runs m..2m-1.  Rotation is a bijection, so
runs 0..2m-1 are pairwise disjoint iff runs 0..m-1 are and U_m does not meet
its own rotation by m*s.  The test doubles over the binary digits of D after
the leading one: each digit turns U_m into U_2m, and a digit 1 then adds
run 2m, base rotated by 2m*s.  Each step is one n-bit rotation (two big-int
shifts, an or and a mask), tested against the union with one big-int and
and merged with one or: at most 2*log2(D) steps in place of D - 1.  U_D
holds every label of the walk, and must not hold the label of f(0).  A
non-bijection stops at the first step whose rotation meets the union; its
least colliding pair costs one more full evaluation, paid only by a caller
who reads it.
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
    base run t < M shifted k times.  The base run's label at t is
    t*step + base[t] mod n, the zero label n staying n: on a split walk base
    is LH and step is e_0, on any other walk base streams every label and
    step is 0.  The shift is the label offset e_0*M mod n (module
    docstring)."""

    zero_label: int  # the label of f(0)
    base: object
    runs: int  # D
    shift: int
    step: int = 0


# LH arrays are kept per field in its log provider's lh_cache, keyed by H's
# terms; the dict is emptied before it grows past about LH_CACHE_LABELS
# labels (4 bytes each)
LH_CACHE_LABELS = 1 << 20


def _walk(field, terms):
    """The walk of the folded polynomial with these terms (permutes): a
    split walk from the cached LH of its H, or else every point's label,
    streamed."""
    n, q = field.q2 - 1, field.q
    logs = field.logs()
    e0 = terms[0][0] if terms else 0
    # f(0) is the constant term; without one it is 0, the label n
    zero_label = logs.log(terms[0][1]) if terms and not e0 else n
    # D = q - 1 runs of M = q + 1 points when q - 1 divides every e_j - e_0
    if not any([(e - e0) % (q - 1) for e, _ in terms]):
        # h_logs' key, built here so that a cache hit builds no H terms
        key = tuple([((e - e0) // (q - 1), c.coeffs) for e, c in terms])
        lh = logs.lh_cache.get(key)
        if lh is None:
            lh = h_logs(field, [((e - e0) // (q - 1), c) for e, c in terms])
        return _Walk(zero_label, lh, q - 1, e0 * (q + 1) % n, e0)
    return _Walk(zero_label, logs.labels(1, terms, n), 1, 0)


def h_logs(field, h_terms):
    """LH[t] = log H(gamma^t) for t = 0..q (n for a zero), gamma = g^(q-1),
    H = sum c*y^k over the (k, c) in h_terms (nonzero Elements c); cached in
    the field's log provider under the terms' exponents and coordinates."""
    logs = field.logs()
    key = tuple([(k, c.coeffs) for k, c in h_terms])
    cache = logs.lh_cache
    lh = cache.get(key)
    if lh is None:
        q = field.q
        lh = array("i", logs.labels(q - 1, h_terms, q + 1))
        if len(cache) * (q + 1) >= LH_CACHE_LABELS:
            cache.clear()
        cache[key] = lh
    return lh


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
        shift = k * walk.shift
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

    Stops at the first repeated image, or on a split walk, at the first
    doubling step whose runs repeat one.
    """
    return not _collides(field, _walk(field, terms))


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


def _collides(field, walk):
    """Does some label of the walk equal another, or the label of f(0)?

    One byte per label (distinct), or on a split walk, one bit per label of
    an n-bit union of runs, doubled over the binary digits of D by rotations
    of itself and of the base run (module docstring); a split walk whose
    shift has order below D collides before any mark.  The base run's byte
    marks are dropped once they are one int.
    """
    n = field.q2 - 1
    zero_label = walk.zero_label
    if walk.runs == 1:
        return not distinct(n + 1, chain((zero_label,), walk.base))
    # run k is the base run rotated by k*shift, so run n/gcd(shift, n) is the
    # base run again: a shift of order below D repeats every base label
    if n // gcd(walk.shift, n) < walk.runs:
        return True
    marks = bytearray((n >> 3) + 1)  # bit b of the little-endian int: label b < n
    if zero_label < n:
        marks[zero_label >> 3] = 1 << (zero_label & 7)
    step = walk.step
    for t, label in enumerate(walk.base):
        # every shift fixes the zero label n, so run 1 would repeat it
        if label == n:
            return True
        label = (t * step + label) % n
        byte, bit = label >> 3, 1 << (label & 7)
        if marks[byte] & bit:
            return True
        marks[byte] |= bit
    base = int.from_bytes(marks, "little")
    del marks
    if zero_label < n:
        base ^= 1 << zero_label
    full = (1 << n) - 1
    union, m = base, 1  # the labels of runs 0..m-1
    for bit in bin(walk.runs)[3:]:
        # runs m..2m-1 are runs 0..m-1 rotated by m*shift
        run = _rotate(union, m * walk.shift, n, full)
        if union & run:
            return True
        union |= run
        m *= 2
        if bit == "1":  # run m is the base run rotated by m*shift
            run = _rotate(base, m * walk.shift, n, full)
            if union & run:
                return True
            union |= run
            m += 1
    return zero_label < n and union >> zero_label & 1 == 1


def _rotate(bits, t, n, full):
    """The n-bit set bits rotated by t mod n: bit b moves to (b + t) mod n;
    full is the mask of the n bits."""
    t %= n
    return (bits << t) & full | bits >> (n - t)


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
