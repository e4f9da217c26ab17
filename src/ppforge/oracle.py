"""Ground-truth engines: exhaustive permutation testing and pointwise equality.

Everything here decides by enumeration, and nothing assumes the shape of the
polynomial: any SparsePoly is folded mod q^2 - 1 (SparsePoly.fold_units) and
evaluated term by term.  x = 0 is evaluated on its own; the nonzero inputs
are walked in generator order x = g^t, t = 0, 1, ..., q^2 - 2, where a term
c*x^e equals c*g^(t*e).  The walk yields one label per image:

* on fields with tables (q^2 <= TABLE_LIMIT) the label is log f(g^t): term j
  is the log lc_j + t*e_j mod q^2 - 1, and terms are added through the Zech
  table, one lookup per term at every extension degree; zero is q^2 - 1;
* above the limit each term keeps its running value c*g^(t*e), multiplied by
  the fixed g^e once per point; the label is the canonical image.

Labels name images one to one, so the bijection test marks them in a
bytearray and stops at the first repeat.  A non-bijection's least colliding
pair costs one more full evaluation, paid only by a caller who reads it.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Callable, Optional, Tuple

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


def _walk(field, poly):
    """(label of f(0), iterator over the labels of f(g^t), t = 0..q^2-2)."""
    terms = poly.fold_units().terms
    const = poly.terms[0][1] if poly.terms and poly.terms[0][0] == 0 else field.zero
    if field.tables_supported():
        _, log, zech = field.tables()
        n = field.q2 - 1
        label0 = log[int(const)]
        return (n if label0 is None else label0,
                _log_walk(n, [(log[int(c)], e) for e, c in terms], zech))
    return int(const), _product_walk(field, terms)


def _log_walk(n, terms, zech):
    """log f(g^t) for t = 0..n-1 (n for a zero image); terms are (log c, e)."""
    for t in range(n):
        acc = None
        for lc, e in terms:
            b = (lc + t * e) % n
            if acc is None:
                acc = b
            else:
                z = zech[b - acc]  # a negative index wraps mod n, as wanted
                acc = None if z is None else (acc + z) % n
        yield n if acc is None else acc


def _product_walk(field, terms):
    """Canonical f(g^t) for t = 0..q^2-2, by running products per term."""
    p = field.p
    powers = [p ** i for i in range(field.degree)]
    steps = [field.multiplier((field.generator ** e).coeffs) for e, _ in terms]
    values = [c.coeffs for _, c in terms]
    for _ in range(field.q2 - 1):
        yield sum(sum(col) % p * pw for col, pw in zip(zip(*values), powers))
        values = [step(v) for step, v in zip(steps, values)]


def evaluate_on_field(field, poly):
    """Images of all q^2 elements, indexed by canonical input encoding."""
    zero_label, labels = _walk(field, poly)
    _, inputs = _walk(field, SparsePoly.monomial(field, field.one, 1))
    # decode[label] is the canonical image that the label names
    decode = field.tables()[0] + [0] if field.tables_supported() else range(field.q2)
    images = [0] * field.q2
    images[0] = decode[zero_label]
    for x, y in zip(inputs, labels):
        images[decode[x]] = decode[y]
    return images


def _least_collision(images):
    """Lexicographically least (x1, x2) with x1 < x2 and images equal, or None."""
    first_preimage = {}
    best = None
    for x, y in enumerate(images):
        if y in first_preimage:
            pair = (first_preimage[y], x)
            if best is None or pair < best:
                best = pair
        else:
            first_preimage[y] = x
    return best


def is_permutation_of_field(field, poly):
    """Walk poly over all of F_{q^2}; bijection iff no image repeats.

    Stops at the first repeated image.
    """
    zero_label, labels = _walk(field, poly)
    seen = bytearray(field.q2)
    seen[zero_label] = 1
    for label in labels:
        if seen[label]:
            return PermutationReport(
                is_bijection=False,
                domain_size=field.q2,
                find_collision=lambda: _least_collision(evaluate_on_field(field, poly)),
            )
        seen[label] = 1
    return PermutationReport(is_bijection=True, domain_size=field.q2)


def is_permutation_of_mu(mu, fn: Callable):
    """Does the element map fn permute the (q+1)-th roots of unity?

    Bijection iff all q+1 images lie in the subgroup and are pairwise
    distinct.  An image outside the subgroup is reported via outside_mu and
    counts as a non-bijection.
    """
    domain = sorted(mu.elements(), key=int)
    member = mu.canonical_set()
    images = []
    outside = None
    for x in domain:
        y = int(fn(x))
        images.append(y)
        if y not in member and outside is None:
            outside = int(x)
    collision = _least_collision(images)
    if collision is not None:
        # translate positions in the sorted domain back to canonical inputs
        collision = (int(domain[collision[0]]), int(domain[collision[1]]))
    return PermutationReport(
        is_bijection=collision is None and outside is None,
        domain_size=mu.order,
        outside_mu=outside,
        find_collision=lambda: collision,
    )


def pointwise_equal(field, f1, f2):
    """True iff the two polynomials agree at every element of F_{q^2}.

    Agreement everywhere is exactly congruence mod x^(q^2) - x.
    """
    return evaluate_on_field(field, f1) == evaluate_on_field(field, f2)
