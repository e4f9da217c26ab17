import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppforge import build_field, field_from_text, field_to_text
from ppforge.errors import DivisionByZero, FieldMismatch, NotPrime, PPForgeError, SizeExceeded
from ppforge.ffcore import (
    FieldSpec,
    TwoLevelLogs,
    _poly_is_irreducible,
    is_prime,
    verify_generator,
)
from reference import frobenius, plain_labels, plain_logs


def test_build_field_basics(field_q5):
    f = field_q5
    assert (f.p, f.h, f.q, f.q2) == (5, 1, 5, 25)
    assert len(f.modulus) == 3 and f.modulus[-1] == 1
    assert _poly_is_irreducible(list(f.modulus), 5)
    assert verify_generator(f, f.generator)


def test_build_field_deterministic_per_seed():
    a = build_field(13, 1, seed=0)
    b = build_field(13, 1, seed=0)
    assert a.modulus == b.modulus
    assert int(a.generator) == int(b.generator)


def test_build_field_rejects_bad_inputs():
    with pytest.raises(NotPrime):
        build_field(4, 1)
    with pytest.raises(NotPrime):
        build_field(2, 1)
    with pytest.raises(NotPrime):
        build_field(9, 1)
    with pytest.raises(ValueError):
        build_field(5, 0)
    with pytest.raises(SizeExceeded):
        build_field(101, 1, max_size=10_000)


@pytest.mark.parametrize("p,h", [(2**61 - 1, 1), (3, 10**8)])
def test_build_field_refuses_oversized_before_any_work(p, h):
    # size comes before primality, so no trial division up to 1.5e9 for the
    # Mersenne prime, and no 3^(2*10^8) for the huge h
    start = time.perf_counter()
    with pytest.raises(SizeExceeded):
        build_field(p, h)
    assert time.perf_counter() - start < 0.5


def _mobius(d):
    sign, k = 1, 2
    while d > 1:
        if d % k == 0:
            d //= k
            if d % k == 0:
                return 0
            sign = -sign
        k += 1
    return sign


@pytest.mark.parametrize("p,n,count", [
    (3, 2, 3), (3, 4, 18), (3, 6, 116), (5, 2, 10), (5, 4, 150), (7, 2, 21), (11, 2, 55)])
def test_irreducibility_test_matches_gauss_count(p, n, count):
    # Gauss: (1/n) * sum over d | n of mu(d) * p^(n/d) monic irreducibles of
    # degree n over F_p; the test must accept exactly that many
    assert sum(_mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) == n * count
    accepted = sum(_poly_is_irreducible(list(low) + [1], p)
                   for low in itertools.product(range(p), repeat=n))
    assert accepted == count


def test_verify_generator_works_on_any_ring(field_q5):
    # F_5[t]/(t^2 - 1) is no field: 1 + t (code 6) is a zero divisor with
    # (1 + t)^k = 2^(k-1) (1 + t), never 1, and no element has order 24
    ring = FieldSpec(5, 1, (4, 0, 1), (0, 0))
    assert not verify_generator(ring, ring.from_int(6))
    assert not any(verify_generator(ring, x) for x in ring.elements())
    # in the field, exactly the phi(24) = 8 elements of order 24
    f = field_q5
    assert sum(verify_generator(f, x) for x in f.elements()) == 8


def test_factorization_is_consistent(field_q13):
    n = 1
    for prime, expo in field_q13.factorization:
        assert is_prime(prime)
        n *= prime ** expo
    assert n == field_q13.q2 - 1


def test_generator_order_exhaustive(field_q13):
    g = field_q13.generator
    one = field_q13.one
    powers = [one]
    for _ in range(167):
        powers.append(powers[-1] * g)
    assert all(x != one for x in powers[1:])
    assert powers[-1] * g == one


def test_identity_laws_exhaustive_f25(field_q5):
    f = field_q5
    for a in f.elements():
        assert a + f.zero == a
        assert a * f.one == a
        if not a.is_zero():
            assert a * a.inverse() == f.one


def test_explicit_modulus_t_squared():
    # F_5[t]/(t^2 - 2): t * t reduces to the scalar 2
    f = FieldSpec(5, 1, (3, 0, 1), (0, 1))
    t = f.element((0, 1))
    assert t * t == f.from_int(2)


def test_field_axioms_exhaustive_f25(field_q5):
    elems = list(field_q5.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_field_axioms_f625_pairs_full_triples_sampled(field_q25):
    f = field_q25
    elems = list(f.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    # full triple product over 625 elements is out of reach; stride the cube
    sample = elems[::23]
    for a, b, c in itertools.product(sample, repeat=3):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_pow_conventions(field_q13):
    f = field_q13
    g = f.generator
    assert g ** 0 == f.one
    assert f.zero ** 0 == f.one
    assert f.zero ** 5 == f.zero
    assert g ** (f.q2 - 1) == f.one
    with pytest.raises(DivisionByZero):
        f.zero ** -1
    with pytest.raises(DivisionByZero):
        f.zero.inverse()


def test_pow_half_order_is_minus_one(field_q13):
    # independent oracle: the only element of order 2 in F_169 is -1
    f = field_q13
    order_two = [x for x in f.elements() if x * x == f.one and x != f.one]
    assert order_two == [-f.one]
    assert f.generator ** ((f.q2 - 1) // 2) == -f.one
    elems = list(f.elements())
    assert all(a - b == a + (-b) for a, b in zip(elems, reversed(elems)))


@given(e1=st.integers(-10**9, 10**9), e2=st.integers(-10**9, 10**9))
@settings(max_examples=60, deadline=None)
def test_pow_additivity(e1, e2):
    f = build_field(13, 1)
    g = f.generator
    assert g ** (e1 + e2) == g ** e1 * g ** e2


@given(n=st.integers(0, 24))
def test_canonical_roundtrip(n):
    f = build_field(5, 1)
    assert int(f.from_int(n)) == n


def test_frobenius_is_an_automorphism(field_q5):
    f = field_q5
    assert frobenius(f.one) == f.one
    elems = list(f.elements())
    for a in elems:
        assert frobenius(frobenius(a)) == a
    for a, b in itertools.product(elems, repeat=2):
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
        assert frobenius(a + b) == frobenius(a) + frobenius(b)


def test_frobenius_fixed_point_count(field_q13):
    fixed = [x for x in field_q13.elements() if frobenius(x) == x]
    assert len(fixed) == 13


@pytest.mark.parametrize("p,h", [(5, 1), (3, 2)])
def test_norm_map_lands_in_subfield(p, h):
    f = build_field(p, h)
    q = f.q
    for a in f.elements():
        norm = a ** (q + 1)
        assert frobenius(norm) == norm


def test_field_mismatch(field_q5, field_q13):
    with pytest.raises(FieldMismatch):
        field_q5.one + field_q13.one
    with pytest.raises(FieldMismatch):
        field_q5.one * field_q13.one


def test_element_repr_and_hash(field_q5):
    a = field_q5.from_int(7)
    assert repr(a) == "F25(7)"
    assert hash(a) == hash(field_q5.from_int(7))


def test_field_file_roundtrip(field_q13):
    text = field_to_text(field_q13)
    lines = text.splitlines()
    assert lines[0] == "p=13"
    assert lines[1] == "h=1"
    assert lines[2].startswith("modulus=")
    assert lines[3].startswith("generator=")
    loaded = field_from_text(text)
    assert loaded.modulus == field_q13.modulus
    assert int(loaded.generator) == int(field_q13.generator)


def test_field_file_rejects_bad_data(field_q13):
    with pytest.raises(ValueError):
        field_from_text("p=13\nh=1\nmodulus=6,0,1\n")  # generator missing
    with pytest.raises(NotPrime):
        field_from_text("p=4\nh=1\nmodulus=1,0,1\ngenerator=2\n")
    with pytest.raises(ValueError):
        field_from_text("p=13\nh=1\nmodulus=6,0,2\ngenerator=2\n")  # not monic
    with pytest.raises(ValueError):
        # t^2 + 12t + 6 = (t-5)(t-9) over F_13 is reducible
        field_from_text("p=13\nh=1\nmodulus=6,12,1\ngenerator=2\n")
    with pytest.raises(ValueError, match="modulus is not irreducible"):
        # F_5[t]/(t^2 - 1) is no field; its zero divisor 1 + t is refused
        # before verify_generator sees it
        field_from_text("p=5\nh=1\nmodulus=4,0,1\ngenerator=6\n")
    with pytest.raises(ValueError):
        # 1 has order 1, not q^2-1
        field_from_text("p=13\nh=1\nmodulus=6,0,1\ngenerator=1\n")


@given(p=st.integers(-3, 40), h=st.integers(-3, 4),
       modulus=st.lists(st.integers(-5, 40), max_size=10), generator=st.integers(-5, 10**4))
@example(p=5, h=1, modulus=[3, 3, 1], generator=10)
@example(p=0, h=-1, modulus=[1], generator=0)
@settings(max_examples=300, deadline=None)
def test_field_from_text_reads_a_field_or_refuses(p, h, modulus, generator):
    # any description gives a field that round-trips, or one of the errors
    # the CLI reports as a usage error; no other exception escapes
    text = f"p={p}\nh={h}\nmodulus={','.join(map(str, modulus))}\ngenerator={generator}\n"
    try:
        field = field_from_text(text)
    except (ValueError, PPForgeError):
        return
    assert field.modulus == tuple(c % p for c in modulus)
    assert field_to_text(field_from_text(field_to_text(field))) == field_to_text(field)


def test_elements_enumerates_whole_field(field_q9):
    elems = list(field_q9.elements())
    assert len(elems) == 81
    assert len({int(x) for x in elems}) == 81


# extension fields: exps()' M = n/(p - 1) base powers fill whole blocks at
# q = 3^2 and end in a short block at the others
EXT_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 29, 131])
def test_two_level_logs_match_plain_powers(p):
    # the log of g^i is i, and i decodes to g^i, a running product of plain
    # Element multiplications
    f = build_field(p, 1)
    logs = f.logs()
    exps = logs.exps()
    n, g = f.q2 - 1, f.generator
    x = f.one
    for i in range(n):
        assert logs.log(x) == i
        assert exps[i] == int(x)
        x = x * g
    assert x == f.one
    assert logs.log(f.zero) == n and exps[n] == 0


# the fields of the Zech reference: prime fields and both kinds of
# extension field, every one small enough to list g^i
ZECH_FIELDS = [(3, 1), (5, 1), (13, 1), (3, 2), (5, 2), (3, 3), (3, 4), (11, 2)]


@pytest.mark.parametrize("p,h", ZECH_FIELDS)
def test_zech_logs_match_plain_powers(p, h):
    # Z(d) at every d, as the labels of 1 + x at x = g^d; log at every
    # element, exp at every label and labels of random polynomials of 1 to 3
    # terms at steps 1, q - 1 and random ones, against plain powers
    f = build_field(p, h)
    exp, log, zech = plain_logs(f)
    logs = f.logs()
    assert isinstance(logs, TwoLevelLogs) and logs is f.logs()
    assert len(logs.log_f) == len(logs.coset) == len(logs.z_f) + 1 == f.q
    n, rng = f.q2 - 1, random.Random(f.q2)
    assert list(logs.labels(1, [(0, f.one), (1, f.one)], n)) == zech
    assert [d for d, z in enumerate(zech) if z == n] == [n // 2]  # 1 + g^(n/2) = 0
    assert [logs.log(x) for x in f.elements()] == log
    assert list(logs.exps()) == exp + [0]
    for step in (1, f.q - 1, rng.randrange(1, n), rng.randrange(1, n)):
        for size in (1, 2, 3, 3):
            terms = [(rng.randrange(n + 1), f.from_int(rng.randrange(1, f.q2)))
                     for _ in range(size)]
            count = min(n, 3 * (f.q + 1))
            assert (list(logs.labels(step, terms, count))
                    == plain_labels(f, step, terms, count)), (step, terms)


@pytest.mark.parametrize("p,h", EXT_FIELDS + [(13, 1), (131, 1)])
def test_exps_decode_every_label_at_once(p, h):
    # exps() against plain powers
    f = build_field(p, h)
    assert list(f.logs().exps()) == plain_logs(f)[0] + [0]


@pytest.mark.parametrize("p,h", [(5, 1), (13, 1), (3, 2), (3, 4)])
def test_power_columns_match_plain_powers(p, h):
    # a^0..a^(count-1) against a ** i: counts that end a doubling exactly
    # (1, 2) and that cut its last step short (3, 5, 17, 33 and q + 1)
    f = build_field(p, h)
    rng = random.Random(f.q2)
    for a in (f.generator, f.generator ** (f.q - 1), f.from_int(rng.randrange(1, f.q2))):
        for count in (1, 2, 3, 5, 17, 33, f.q + 1):
            cols = f.power_columns(a, count)
            assert len(cols) == 2 * h and all(len(col) == count for col in cols)
            assert list(zip(*cols)) == [tuple((a ** i).coeffs) for i in range(count)], (a, count)


def test_two_level_logs_on_the_largest_prime_field():
    # q = 8161, a prime with q^2 just under 2^26: lists of q ints
    f = build_field(8161, 1)
    logs = f.logs()
    assert len(logs.log_f) == len(logs.coset) == f.q
    n, rng = f.q2 - 1, random.Random(0)
    for e in [0, 1, f.q, f.q + 1, n - 1] + [rng.randrange(n) for _ in range(300)]:
        assert logs.log(f.generator ** e) == e
