import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppforge import build_field, ffcore, field_from_text, field_to_text
from ppforge.errors import DivisionByZero, FieldMismatch, NotPrime, SizeExceeded
from ppforge.ffcore import (
    FieldSpec,
    TwoLevelLogs,
    ZechLogs,
    _poly_is_irreducible,
    is_prime,
    verify_generator,
)


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
    assert f.one.frobenius() == f.one
    elems = list(f.elements())
    for a in elems:
        assert a.frobenius().frobenius() == a
    for a, b in itertools.product(elems, repeat=2):
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_frobenius_fixed_point_count(field_q13):
    fixed = [x for x in field_q13.elements() if x.frobenius() == x]
    assert len(fixed) == 13


@pytest.mark.parametrize("p,h", [(5, 1), (3, 2)])
def test_norm_map_lands_in_subfield(p, h):
    f = build_field(p, h)
    q = f.q
    for a in f.elements():
        norm = a ** (q + 1)
        assert norm.frobenius() == norm


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
    with pytest.raises(ValueError):
        # 1 has order 1, not q^2-1
        field_from_text("p=13\nh=1\nmodulus=6,0,1\ngenerator=1\n")


def test_elements_enumerates_whole_field(field_q9):
    elems = list(field_q9.elements())
    assert len(elems) == 81
    assert len({int(x) for x in elems}) == 81


# the tabled fields: the M = n/(p - 1) base powers fill whole blocks at
# q = 3^2 and end in a short block at the others
TABLE_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2)]


def test_tables_are_for_small_extension_fields_only(field_q5, monkeypatch):
    # logs() picks the Zech tables on an extension field up to TABLE_LIMIT,
    # and two-level logs on every other field, once per field
    for p, h in TABLE_FIELDS:
        f = build_field(p, h)
        assert f.tables_supported() and isinstance(f.logs(), ZechLogs)
        assert f.tables() == (f.logs().exp_table, f.logs().log_table, f.logs().zech_table)
    assert not field_q5.tables_supported() and isinstance(field_q5.logs(), TwoLevelLogs)
    assert isinstance(build_field(3, 6).logs(), TwoLevelLogs)  # q^2 = 3^12 > TABLE_LIMIT
    monkeypatch.setattr(ffcore, "TABLE_LIMIT", 1 << 26)
    cached = build_field(8161, 1)
    fresh = FieldSpec(8161, 1, cached.modulus, cached.generator.coeffs)
    assert isinstance(fresh.logs(), TwoLevelLogs) and fresh.logs() is fresh.logs()


@pytest.mark.parametrize("p,h", TABLE_FIELDS)
def test_tables_match_plain_powers(p, h):
    # g^i is a running product of plain Element multiplications
    f = build_field(p, h)
    logs = ZechLogs(f)
    exp, log, zech = logs.exp_table, logs.log_table, logs.zech_table
    n, g, one = f.q2 - 1, f.generator, f.one
    assert len(exp) == len(log) == f.q2 and len(zech) == n
    x = one
    for i in range(n):
        assert exp[i] == int(x)
        assert log[exp[i]] == i
        assert zech[i] == log[int(x + one)]
        x = x * g
    assert x == one
    # n stands for zero: log[0], exp[n], and zech at the one i with 1 + g^i = 0
    assert log[0] == n and exp[n] == 0
    assert [i for i, z in enumerate(zech) if z == n] == [n // 2]
    assert logs.log(f.zero) == n and logs.exp(n) == 0


def test_tables_hold_no_int_objects():
    # a garbage collection visits a table's referents: its type alone, not
    # one int object per entry
    logs = ZechLogs(build_field(11, 2))
    for table in (logs.exp_table, logs.log_table, logs.zech_table):
        assert len(gc.get_referents(table)) <= 1


@pytest.mark.parametrize("p,h", [(13, 2), (17, 2), (3, 5)])
def test_tables_build_without_a_field_sized_temporary(p, h):
    f = build_field(p, h)
    tracemalloc.start()
    try:
        logs = ZechLogs(f)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < 0.05 * retained


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 29, 131])
def test_two_level_logs_match_plain_powers(p):
    # the log of g^i is i, and i decodes to g^i, a running product of plain
    # Element multiplications; 3, 5, 13 and 131 were tabled before
    f = build_field(p, 1)
    logs = f.logs()
    n, g = f.q2 - 1, f.generator
    x = f.one
    for i in range(n):
        assert logs.log(x) == i
        assert logs.exp(i) == int(x)
        x = x * g
    assert x == f.one
    assert logs.log(f.zero) == n and logs.exp(n) == 0


@pytest.mark.parametrize("p,h", TABLE_FIELDS)
def test_two_level_logs_match_the_zech_tables(p, h):
    # on extension fields alpha and beta come through the inverse basis
    # matrix: log and exp against the tables at every element and label
    f = build_field(p, h)
    two_level, zech = TwoLevelLogs(f), ZechLogs(f)
    assert len(two_level.log_f) == len(two_level.coset) == f.q
    assert all(two_level.log(x) == zech.log(x) for x in f.elements())
    assert all(two_level.exp(i) == zech.exp(i) for i in range(f.q2))


@pytest.mark.parametrize("p,h", TABLE_FIELDS + [(13, 1), (131, 1)])
def test_exps_decode_every_label_at_once(p, h, monkeypatch):
    # exps() against exp one label at a time: on the field's own provider,
    # the Zech tables where h > 1, and on a fresh copy under TABLE_LIMIT = 0,
    # which takes two-level logs at every h
    f = build_field(p, h)
    expected = list(map(f.logs().exp, range(f.q2)))
    assert isinstance(f.logs(), ZechLogs if h > 1 else TwoLevelLogs)
    monkeypatch.setattr(ffcore, "TABLE_LIMIT", 0)
    fresh = FieldSpec(p, h, f.modulus, f.generator.coeffs)
    assert isinstance(fresh.logs(), TwoLevelLogs)
    assert list(f.logs().exps()) == list(fresh.logs().exps()) == expected


def test_two_level_logs_on_the_largest_prime_field():
    # q = 8161, a prime with q^2 just under 2^26: lists of q ints
    f = build_field(8161, 1)
    logs = f.logs()
    assert len(logs.log_f) == len(logs.coset) == f.q
    n, rng = f.q2 - 1, random.Random(0)
    for e in [0, 1, f.q, f.q + 1, n - 1] + [rng.randrange(n) for _ in range(300)]:
        assert logs.log(f.generator ** e) == e
