import gc
import itertools
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppforge import build_field, ffcore, field_from_text, field_to_text
from ppforge.errors import DivisionByZero, FieldMismatch, NotPrime, SizeExceeded
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
    # logs() is TwoLevelLogs on every field, once per field; it keeps the
    # flat Zech table on an extension field up to TABLE_LIMIT only
    for p, h in TABLE_FIELDS:
        f = build_field(p, h)
        assert f.tables_supported() and isinstance(f.logs(), TwoLevelLogs)
        assert f.tables() == (f.logs().zech_table,) and f.logs().zech_table is not None
    assert not field_q5.tables_supported() and field_q5.logs().zech_table is None
    assert build_field(3, 6).logs().zech_table is None  # q^2 = 3^12 > TABLE_LIMIT
    monkeypatch.setattr(ffcore, "TABLE_LIMIT", 1 << 26)
    cached = build_field(8161, 1)
    fresh = FieldSpec(8161, 1, cached.modulus, cached.generator.coeffs)
    assert fresh.logs().zech_table is None and fresh.logs() is fresh.logs()


@pytest.mark.parametrize("p,h", TABLE_FIELDS)
def test_tables_match_plain_powers(p, h):
    # the flat Zech table against Zech logs from a running product of plain
    # Element multiplications: one array('i') of n entries
    f = build_field(p, h)
    exp, log, zech = plain_logs(f)
    n = f.q2 - 1
    table, = f.tables()
    assert isinstance(table, array) and table.typecode == "i" and len(table) == n
    assert list(table) == zech
    # n stands for zero: Z at the one d with 1 + g^d = 0
    assert [d for d, z in enumerate(table) if z == n] == [n // 2]


def test_tables_hold_no_int_objects():
    # a garbage collection visits a table's referents: its type alone, not
    # one int object per entry
    table, = build_field(11, 2).tables()
    assert len(gc.get_referents(table)) <= 1


@pytest.mark.parametrize("p,h", [(13, 2), (17, 2), (3, 5)])
def test_tables_build_without_a_field_sized_temporary(p, h):
    # the flat table is filled a column of q - 1 entries at a time
    f = build_field(p, h)
    tracemalloc.start()
    try:
        logs = TwoLevelLogs(f)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(logs.zech_table) == f.q2 - 1
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
def test_two_level_logs_match_the_zech_tables(p, h, monkeypatch):
    # the Zech logarithm computed per point from the O(q) lists, on a fresh
    # copy under TABLE_LIMIT = 0, against the flat table at every d, d + n
    # and d - n; and the labels of either provider are the same
    f = build_field(p, h)
    table, = f.tables()
    monkeypatch.setattr(ffcore, "TABLE_LIMIT", 0)
    fresh = FieldSpec(p, h, f.modulus, f.generator.coeffs).logs()
    assert fresh.zech_table is None
    assert len(fresh.log_f) == len(fresh.coset) == len(fresh.z_f) + 1 == f.q
    n = f.q2 - 1
    assert all(fresh.zech(d) == z == fresh.zech(d + n) == fresh.zech(d - n)
               for d, z in enumerate(table))
    terms = [(0, f.generator), (1, f.one), (f.q - 1, -f.generator)]
    assert list(fresh.labels(1, terms, n)) == list(f.logs().labels(1, terms, n))


# the fields of the Zech reference: prime fields and both kinds of
# extension field, every one small enough to list g^i
ZECH_FIELDS = [(3, 1), (5, 1), (13, 1), (3, 2), (5, 2), (3, 3), (3, 4), (11, 2)]


@pytest.mark.parametrize("p,h", ZECH_FIELDS)
def test_zech_logs_match_plain_powers(p, h, log_providers):
    # Z(d) at every d, log at every element, exp at every label and labels of
    # random polynomials of 1 to 3 terms at steps 1, q - 1 and random ones,
    # against plain powers; on each provider log_providers gives, so on an
    # extension field both the flat table and the per-point formula
    f = build_field(p, h)
    exp, log, zech = plain_logs(f)
    n, rng = f.q2 - 1, random.Random(f.q2)
    for copy in log_providers(f):
        logs = copy.logs()
        assert [logs.zech(d) for d in range(n)] == zech
        if logs.zech_table is not None:
            assert list(logs.zech_table) == zech
        assert [logs.log(x) for x in f.elements()] == log
        assert [logs.exp(label) for label in range(n + 1)] == exp + [0]
        for step in (1, f.q - 1, rng.randrange(1, n), rng.randrange(1, n)):
            for size in (1, 2, 3, 3):
                terms = [(rng.randrange(n + 1), f.from_int(rng.randrange(1, f.q2)))
                         for _ in range(size)]
                count = min(n, 3 * (f.q + 1))
                assert (list(logs.labels(step, terms, count))
                        == plain_labels(f, step, terms, count)), (step, terms)
    # per provider: zech_table on the field's own copy where h > 1 only
    assert [copy.logs().zech_table is not None for copy in log_providers(f)] == [h > 1, False]


@pytest.mark.parametrize("p,h", TABLE_FIELDS + [(13, 1), (131, 1)])
def test_exps_decode_every_label_at_once(p, h, monkeypatch):
    # exps() against plain powers: on the field's own provider, and on a
    # fresh copy under TABLE_LIMIT = 0, without the flat Zech table
    f = build_field(p, h)
    expected = plain_logs(f)[0] + [0]
    monkeypatch.setattr(ffcore, "TABLE_LIMIT", 0)
    fresh = FieldSpec(p, h, f.modulus, f.generator.coeffs)
    assert fresh.logs().zech_table is None
    assert list(f.logs().exps()) == list(fresh.logs().exps()) == expected


def test_two_level_logs_on_the_largest_prime_field():
    # q = 8161, a prime with q^2 just under 2^26: lists of q ints
    f = build_field(8161, 1)
    logs = f.logs()
    assert len(logs.log_f) == len(logs.coset) == f.q
    n, rng = f.q2 - 1, random.Random(0)
    for e in [0, 1, f.q, f.q + 1, n - 1] + [rng.randrange(n) for _ in range(300)]:
        assert logs.log(f.generator ** e) == e
