"""Ground-truth engines: exhaustive permutation testing and pointwise equality.

Everything here decides by enumeration, and nothing assumes the shape of the
polynomial: any SparsePoly is folded mod n = q^2 - 1 (SparsePoly.reduce_mod)
and evaluated term by term.  f(0) is read from the constant term; the nonzero
inputs are walked in generator order x = g^t, t = 0, 1, ..., n - 1, where a
term c*x^e equals c*g^(t*e).  The walk yields one label per image.

The walk is a base walk and shifted copies of it.  Let e_0 be the least
folded exponent.  When q - 1 divides every difference e_j - e_0, as it does
for every x^r h(x^(q-1)) and every monomial, the walk splits into D = q - 1
runs of M = n/D = q + 1 points: each e_j*M = e_0*M (mod n), so
f(g^(t+M)) = g^(e_0*M) * f(g^t) for every t.  Only the base run t < M is
evaluated term by term:

* on fields with tables (q^2 <= TABLE_LIMIT) the label is log f(g^t): term j
  is the log lc_j + t*e_j mod n, and terms are added through the Zech table,
  one lookup per term at every extension degree; zero is labelled n, the
  value the tables hold for it (log[0], and zech[i] where 1 + g^i = 0);
* above the limit the label is the canonical image: FieldSpec.power_blocks
  sums the terms' walks c*g^(t*e) a block of consecutive t at a time, each
  block stepped from the last by the linear map of g^(e*B), and each block
  is Horner-encoded as the exp table is.

Run k = 1..D-1 (t = kM..kM+M-1) is the base run shifted: with tables each
label plus k*e_0*M mod n, the zero label n staying n; above the limit the
previous run's columns times g^(e_0*M), one linear map per run, then
encoded.  D is read off the folded exponents alone, never off a family.  Any
other polynomial has D = 1: its base run is the whole walk, evaluated term
by term and streamed.  evaluate_on_field reads the runs in t order as one
label sequence.

Labels name images one to one, so the bijection test marks every one of the
q^2 labels and stops at the first repeat.  It marks one byte per label in a
bytearray, except for a split walk with tables.  That walk marks the label
of f(0) and then the base run's labels, one at a time, as bits b < n of an
int; it stops at a repeat, or at a zero image, which every shift fixes, so
run 1 would repeat it.  Run k is then the n-bit set base of the base run's
labels rotated by k*s, s = e_0*M mod n, so the union U_m of runs 0..m-1,
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

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from itertools import chain
from typing import Callable, NamedTuple, Optional, Tuple

from .sparsepoly import SparsePoly


@dataclass(frozen=True)
class PermutationReport:
    """Verdict of an exhaustive bijection test.

    first_collision is the lexicographically least pair of canonical input
    encodings with equal images (None if there is none), so diagnostics are
    reproducible run to run; find_collision computes it on first read.
    outside_mu (subgroup tests only) holds the least canonical input whose
    image left the subgroup; it also counts as a non-bijection.
    """

    is_bijection: bool
    domain_size: int
    outside_mu: Optional[int] = None
    find_collision: Callable[[], Optional[Tuple[int, int]]] = dataclass_field(
        default=lambda: None, repr=False, compare=False)

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
    base run t < M shifted k times.

    With tables (tabled) the labels are logs, the base run is an iterator
    over labels and the shift is the label offset e_0*M mod n; without, the
    labels are canonical encodings, the base run is power_blocks' blocks of
    values and the shift is the factor g^(e_0*M).
    """

    zero_label: int  # the label of f(0)
    base: object
    runs: int  # D
    shift: object
    tabled: bool


def _walk(field, poly):
    """poly's walk; tables, where the field has them, decide its labels."""
    terms = poly.reduce_mod().terms
    const = terms[0][1] if terms and terms[0][0] == 0 else field.zero
    n = field.q2 - 1
    e0 = terms[0][0] if terms else 0
    q = field.q
    # D = q - 1 runs of M = q + 1 points when q - 1 divides every e_j - e_0
    runs = q - 1 if all((e - e0) % (q - 1) == 0 for e, _ in terms) else 1
    run_len = n // runs
    if field.tables_supported():
        _, log, zech = field.tables()
        base = _log_walk(n, run_len, [(log[int(c)], e) for e, c in terms], zech)
        return _Walk(log[int(const)], base, runs, e0 * run_len % n, True)
    base = field.power_blocks(field.generator, terms, run_len)
    return _Walk(int(const), base, runs, field.generator ** (e0 * run_len), False)


def _labels(field, walk):
    """The labels of f(g^t), t = 0..n-1, in t order."""
    if walk.tabled:
        runs = _log_runs(field.q2 - 1, walk.base, walk.runs, walk.shift)
    else:
        runs = _vector_runs(field, walk.base, walk.runs, walk.shift)
    return chain.from_iterable(runs)


def _log_walk(n, count, terms, zech):
    """log f(g^t) for t = 0..count-1 (n for a zero image); terms are (log c, e)."""
    for t in range(count):
        acc = n
        for lc, e in terms:
            b = (lc + t * e) % n
            if acc == n:
                acc = b
            else:
                z = zech[b - acc]  # a negative index wraps mod n, as wanted
                acc = n if z == n else (acc + z) % n
        yield acc


def _log_runs(n, base, runs, shift):
    """The labels of the base walk, then runs - 1 copies, the k-th shifted by
    k*shift mod n; the zero label n stays n."""
    if runs == 1:
        yield base
        return
    base = list(base)
    yield base
    zeros = [i for i, label in enumerate(base) if label == n]
    for k in range(1, runs):
        s = k * shift % n
        run = [(label + s) % n for label in base]
        for i in zeros:
            run[i] = n
        yield run


def _vector_runs(field, base, runs, factor):
    """The encoded values of the base walk, given as power_blocks, then
    runs - 1 copies, each the previous one times factor."""
    if runs == 1:
        yield from map(field.encode, base)
        return
    cols = [list(chain.from_iterable(col)) for col in zip(*base)]
    yield field.encode(cols)
    for _ in range(1, runs):
        cols = field._apply(factor.coeffs, cols)
        yield field.encode(cols)


def evaluate_on_field(field, poly):
    """Images of all q^2 elements, indexed by canonical input encoding."""
    walk = _walk(field, poly)
    inputs = _labels(field, _walk(field, SparsePoly.monomial(field, field.one, 1)))
    # decode[label] is the canonical image that the label names
    decode = field.tables()[0].tolist() + [0] if walk.tabled else range(field.q2)
    images = [0] * field.q2
    images[0] = decode[walk.zero_label]
    for x, y in zip(inputs, _labels(field, walk)):
        images[decode[x]] = decode[y]
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


def is_permutation_of_field(field, poly):
    """Walk poly over all of F_{q^2}; bijection iff no image repeats.

    Stops at the first repeated image, or with tables and a split walk, at
    the first doubling step whose runs repeat one.
    """
    if _collides(field, _walk(field, poly)):
        return PermutationReport(
            is_bijection=False,
            domain_size=field.q2,
            find_collision=lambda: _least_collision(range(field.q2), evaluate_on_field(field, poly)),
        )
    return PermutationReport(is_bijection=True, domain_size=field.q2)


def _collides(field, walk):
    """Does some label of the walk equal another, or the label of f(0)?

    One byte per label (distinct), or with tables and a split walk, one bit
    per label of an n-bit union of runs, doubled over the binary digits of D
    by rotations of itself and of the base run (module docstring).
    """
    n = field.q2 - 1
    zero_label = walk.zero_label
    if walk.runs == 1 or not walk.tabled:
        return not distinct(n + 1, chain((zero_label,), _labels(field, walk)))
    marks = bytearray((n >> 3) + 1)  # bit b of the little-endian int: label b < n
    if zero_label < n:
        marks[zero_label >> 3] = 1 << (zero_label & 7)
    for label in walk.base:
        byte, bit = label >> 3, 1 << (label & 7)
        # every shift fixes the zero label n, so run 1 would repeat it
        if label == n or marks[byte] & bit:
            return True
        marks[byte] |= bit
    base = int.from_bytes(marks, "little")
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
    return (bits << t | bits >> (n - t)) & full


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
