"""Test-only references and conveniences, built from plain field arithmetic
and nothing the code under test computes for itself."""

from functools import lru_cache

from ppforge import FamilyParams, SparsePoly, build_h, make_mu


@lru_cache(maxsize=None)
def plain_logs(field):
    """(exp, log, zech) of the field by listing g^i with plain Element
    multiplication: exp[i] is the canonical encoding of g^i for i < n =
    q^2 - 1, log its inverse with log[0] = n, and zech[d] = log(1 + g^d),
    n where 1 + g^d = 0."""
    n = field.q2 - 1
    exp, x = [], field.one
    for _ in range(n):
        exp.append(int(x))
        x = x * field.generator
    assert x == field.one
    log = [n] * field.q2
    for i, code in enumerate(exp):
        log[code] = i
    zech = [log[int(field.from_int(code) + field.one)] for code in exp]
    return exp, log, zech


def plain_labels(field, step, terms, count):
    """log of sum c*x^e over the (e, c) in terms at x = g^(step*t),
    t = 0..count-1, n for a zero value: each value summed from plain
    Element products, then looked up in plain_logs."""
    exp, log, _ = plain_logs(field)
    n = field.q2 - 1
    labels = []
    for t in range(count):
        value = field.zero
        for e, c in terms:
            value = value + c * field.from_int(exp[step * t * e % n])
        labels.append(log[int(value)])
    return labels


def poly_from_ints(field, pairs):
    """The SparsePoly with these (exponent, canonical integer) pairs."""
    return SparsePoly(field, [(e, field.from_int(c)) for e, c in pairs])


def frobenius(a):
    """The q-th power map a -> a^q (conjugation over F_q)."""
    return a ** a.field.q


def coset_decompose(part, x):
    """(i, y) with x = omega^i * y and y in the index-d subgroup."""
    i = part.coset(part.mu.log(x))
    return i, x * part.omega_pow(-i % part.d)


def t6_even_v_is_constant_on_mu(field, u, v, c):
    """With v even, h restricted to mu_{q+1} is the constant c, so
    x^r h(x)^(q-1) acts there as c^(q-1) * x^r.  Checked pointwise."""
    if v % 2 != 0:
        raise ValueError("v must be even here")
    h = build_h(FamilyParams(tag="T6", field=field, r=1, c=c, u=u, v=v))
    return all(hx == c for hx in make_mu(field).evaluate(h))
