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
evaluated.  A label is log f(g^t) (n for a zero image) where the field
gives logs, and the canonical image otherwise:

* a split walk on a prime field (h = 1, any size) or on a tabled extension
  field (q^2 <= TABLE_LIMIT) has log labels.  Then f = x^(e_0) H(x^(q-1))
  with H = sum c_j y^(k_j), k_j = (e_j - e_0)/(q - 1), so
  log f(g^t) = t*e_0 + LH[t] mod n, where LH[t] = log H(gamma^t) and
  gamma = g^(q-1).  LH depends on H alone, and is cached per field under H's
  terms (k_j, c_j), read off the folded polynomial: a sweep over r reuses
  it, at M integer adds per r.  On h = 1, LH is the two-level logs
  (ffcore.TwoLevelLogs) of FieldSpec.power_blocks(gamma, H, M); on a tabled
  field it is a Zech walk over H: term j is the log lc_j + t*k_j*(q-1) mod
  n, and terms are added through the Zech table, one lookup per term;
* an unsplit walk on a tabled field is the same Zech walk over f itself;
* every other walk has canonical labels: FieldSpec.power_blocks sums the
  terms' walks c*g^(t*e) a block of consecutive t at a time, each block
  stepped from the last by the linear map of g^(e*B), and each block is
  Horner-encoded.

Run k = 1..D-1 (t = kM..kM+M-1) is the base run shifted: with log labels
each label plus k*e_0*M mod n, the zero label n staying n; with canonical
labels the previous run's columns times g^(e_0*M), one linear map per run,
then encoded.  D is read off the folded exponents alone, never off a family.
Any other polynomial has D = 1: its base run is the whole walk, evaluated
term by term and streamed.  evaluate_on_field reads the runs in t order as
one label sequence, and decodes log labels through TwoLevelLogs.exp on
h = 1 and the exp table on tabled fields.

Labels name images one to one, so the bijection test marks every one of the
q^2 labels and stops at the first repeat.  It marks one byte per label in a
bytearray, except for a split walk with log labels.  That walk marks the label
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

from array import array
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, NamedTuple, Optional, Tuple
from weakref import WeakKeyDictionary

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

    With log labels (logs) the base run is an iterable of labels, n for a
    zero image, and the shift is the label offset e_0*M mod n; with canonical
    labels the base run is power_blocks' blocks of values and the shift is
    the factor g^(e_0*M).  Log labels come from the two-level logs and the
    per-H cache on h = 1 fields, and from the Zech tables on tabled fields
    (module docstring).
    """

    zero_label: int  # the label of f(0)
    base: object
    runs: int  # D
    shift: object
    logs: bool


# each field's LH arrays, keyed by H's terms; a field's dict is emptied
# before it grows past about LH_CACHE_LABELS labels (4 bytes each)
LH_CACHE_LABELS = 1 << 20
_LH_CACHE = WeakKeyDictionary()


def _walk(field, poly):
    """poly's walk.  Log labels where the field gives them: split walks on
    h = 1 fields, and every walk on tabled fields."""
    terms = poly.reduce_mod().terms
    const = terms[0][1] if terms and terms[0][0] == 0 else field.zero
    n = field.q2 - 1
    e0 = terms[0][0] if terms else 0
    q = field.q
    # D = q - 1 runs of M = q + 1 points when q - 1 divides every e_j - e_0
    runs = q - 1 if all((e - e0) % (q - 1) == 0 for e, _ in terms) else 1
    run_len = n // runs
    tabled = field.tables_supported()
    if runs > 1 and (tabled or field.h == 1):
        lh = _h_logs(field, tuple(((e - e0) // (q - 1), c) for e, c in terms))
        base = [label if label == n else (t * e0 + label) % n for t, label in enumerate(lh)]
        return _Walk(_log(field, const), base, runs, e0 * run_len % n, True)
    if tabled:
        _, log, zech = field.tables()
        base = _log_walk(n, run_len, [(log[int(c)], e) for e, c in terms], zech)
        return _Walk(log[int(const)], base, runs, e0 * run_len % n, True)
    base = field.power_blocks(field.generator, terms, run_len)
    return _Walk(int(const), base, runs, field.generator ** (e0 * run_len), False)


def _log(field, c):
    """log c, n for c = 0, on a field with log labels."""
    if field.h == 1:
        return field.two_level_logs().log(*c.coeffs)
    return field.tables()[1][int(c)]


def _h_logs(field, h_terms):
    """LH[t] = log H(gamma^t) for t = 0..q (n for a zero), gamma = g^(q-1),
    H = sum c*y^k over the (k, c) in h_terms; cached per field under the
    terms' exponents and coordinates."""
    key = tuple((k, c.coeffs) for k, c in h_terms)
    cache = _LH_CACHE.setdefault(field, {})
    lh = cache.get(key)
    if lh is None:
        q, n = field.q, field.q2 - 1
        if field.h == 1:
            log = field.two_level_logs().log
            blocks = field.power_blocks(field.generator ** (q - 1), h_terms, q + 1)
            lh = array("i", chain.from_iterable(map(log, *cols) for cols in blocks))
        else:
            _, log, zech = field.tables()
            lh = array("i", _log_walk(n, q + 1, [(log[int(c)], k * (q - 1)) for k, c in h_terms],
                                      zech))
        if len(cache) * (q + 1) >= LH_CACHE_LABELS:
            cache.clear()
        cache[key] = lh
    return lh


def _labels(field, walk):
    """The labels of f(g^t), t = 0..n-1, in t order."""
    if walk.logs:
        runs = _log_runs(field.q2 - 1, walk.base, walk.runs, walk.shift)
    else:
        runs = _vector_runs(field, walk.base, walk.runs, walk.shift)
    return chain.from_iterable(runs)


def _log_walk(n, count, terms, zech):
    """log f(g^t) for t = 0..count-1 (n for a zero image); terms are (log c, e)."""
    if not terms:
        yield from repeat(n, count)
        return
    (lc0, e0), rest = terms[0], terms[1:]
    for t in range(count):
        acc = (lc0 + t * e0) % n
        for lc, e in rest:
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
    inputs = _walk(field, SparsePoly.monomial(field, field.one, 1))
    images = [0] * field.q2
    # the inputs' walk is split, so it has log labels wherever poly's has
    decode_x = _log_decoder(field) if inputs.logs else int
    decode_y = decode_x if walk.logs else int
    images[0] = decode_y(walk.zero_label)
    for x, y in zip(_labels(field, inputs), _labels(field, walk)):
        images[decode_x(x)] = decode_y(y)
    return images


def _log_decoder(field):
    """log label -> the canonical image that it names."""
    if field.h == 1:
        return field.two_level_logs().exp
    return (field.tables()[0].tolist() + [0]).__getitem__


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

    Stops at the first repeated image, or with log labels and a split walk, at
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

    One byte per label (distinct), or with log labels and a split walk, one bit
    per label of an n-bit union of runs, doubled over the binary digits of D
    by rotations of itself and of the base run (module docstring).
    """
    n = field.q2 - 1
    zero_label = walk.zero_label
    if walk.runs == 1 or not walk.logs:
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
