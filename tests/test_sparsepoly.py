import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppforge import SparsePoly, build_field, evaluate
from ppforge.errors import FieldMismatch, NegativeExponent

term_lists = st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 168)), max_size=8
)


def test_terms_are_normalized(field_q13):
    f = field_q13
    poly = SparsePoly(f, [(8, f.one), (0, f.from_int(2)), (8, f.one)])
    assert poly.canonical_terms() == ((0, 2), (8, 2))


def test_zero_coefficients_dropped(field_q13):
    f = field_q13
    poly = SparsePoly(f, [(3, f.one), (3, -f.one), (0, f.from_int(5))])
    assert poly.canonical_terms() == ((0, 5),)
    assert SparsePoly(f, []).is_zero()


def test_negative_exponent_rejected(field_q13):
    with pytest.raises(NegativeExponent):
        SparsePoly(field_q13, [(-1, field_q13.one)])


def test_foreign_coefficient_rejected(field_q5, field_q13):
    with pytest.raises(FieldMismatch):
        SparsePoly(field_q5, [(1, field_q13.one)])


def test_reduce_mod_folds_positive_exponents_into_1_to_n(field_q13):
    f = field_q13
    n = f.q2 - 1
    poly = SparsePoly(f, [(0, f.from_int(2)), (n, f.one), (n + 1, f.one), (2 * n, f.one)])
    # e=168 stays 168 (not 0: the term still vanishes at x=0); 169 -> 1; 336 -> 168
    assert poly.reduce_mod().canonical_terms() == ((0, 2), (1, 1), (168, 2))


def test_reduce_mod_merges_and_cancels(field_q13):
    f = field_q13
    poly = SparsePoly(f, [(5, f.one), (5 + 168, -f.one)])
    assert poly.reduce_mod().is_zero()


def test_compose_power(field_q13):
    f = field_q13
    h = SparsePoly(f, [(0, f.from_int(2)), (8, f.one), (92, f.one)])
    composed = h.compose_power(5, 12)
    assert composed.canonical_terms() == ((5, 2), (101, 1), (1109, 1))


def test_str_formats(field_q5):
    f = field_q5
    assert str(SparsePoly(f, [])) == "0"
    assert str(SparsePoly(f, [(0, f.from_int(3))])) == "3"
    h = SparsePoly(f, [(0, f.from_int(2)), (1, -f.one), (4, f.one)])
    assert str(h) == "2 + 4x + x^4"
    assert str(SparsePoly(f, [(5, f.from_int(2)), (101, f.from_int(2))])) == "2x^5 + 2x^101"


def test_equality(field_q13):
    f = field_q13
    a = SparsePoly(f, [(1, f.one), (0, f.from_int(2))])
    b = SparsePoly(f, [(0, f.from_int(2)), (1, f.one)])
    assert a == b
    assert a != SparsePoly(f, [(1, f.one)])


def test_from_int_pairs_and_monomial(field_q13):
    f = field_q13
    assert SparsePoly.from_int_pairs(f, [(0, 2), (8, 1)]).canonical_terms() == ((0, 2), (8, 1))
    assert SparsePoly.monomial(f, f.from_int(2), 5).canonical_terms() == ((5, 2),)


@given(pairs=term_lists)
@settings(max_examples=80, deadline=None)
def test_normalization_invariants(pairs):
    f = build_field(13, 1)
    poly = SparsePoly.from_int_pairs(f, pairs)
    exps = [e for e, _ in poly.terms]
    assert exps == sorted(set(exps))
    assert all(not c.is_zero() for _, c in poly.terms)


@given(pairs=term_lists)
@settings(max_examples=60, deadline=None)
def test_reduce_mod_is_idempotent_and_pointwise_safe(pairs):
    f = build_field(13, 1)
    poly = SparsePoly.from_int_pairs(f, pairs)
    folded = poly.reduce_mod()
    assert folded.reduce_mod() is folded  # nothing left to fold: no new polynomial
    assert all(0 <= e <= f.q2 - 1 for e, _ in folded.terms)
    for x in (f.zero, f.one, f.generator, f.from_int(100)):
        assert evaluate(f, poly, x) == evaluate(f, folded, x)
