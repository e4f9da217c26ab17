from math import gcd

import pytest

from ppforge import (
    FamilyParams,
    build_f,
    build_field,
    build_h,
    corollary_negative,
    derived_exponents,
    evaluate,
    gcd_criterion,
    is_permutation_of_field,
    lemma_d4_identity,
    lemma_u_identity,
    lemma_v_identity,
    make_mu,
    pointwise_equal,
    predicate,
    valid_c_values,
    validate,
)
from ppforge.errors import (
    BadCongruence,
    HypothesesNotSatisfied,
    NegativeExponent,
    PartitionNotDisjoint,
)
from ppforge.families import (
    TAGS,
    _c_power_is_one,
    _coset_identity,
    default_k_window,
    valid_c_count,
)
from reference import poly_from_ints, t6_even_v_is_constant_on_mu


def make(field, tag, r=1, c=2, **kw):
    return FamilyParams(tag=tag, field=field, r=r, c=field.from_int(c), **kw)


# ---------------------------------------------------------------------------
# derived exponents and hypothesis validation
# ---------------------------------------------------------------------------

def test_derived_exponents():
    de = derived_exponents(13, 2)
    assert (de.v, de.v1, de.u, de.u1, de.s) == (7, 7, 8, 8, 1)
    de = derived_exponents(5, 3)
    assert (de.v, de.v1, de.s) == (2, 4, 2)
    assert derived_exponents(11, 4).u == (11 + 5) // 4  # T5's u is the generic v+1


def test_validate_t1_satisfied(field_q13):
    report = validate(make(field_q13, "T1", d=2, k=1))
    assert report.satisfied and report.violations == ()


def test_validate_t1_wrong_congruence(field_q7):
    report = validate(make(field_q7, "T1", d=2, k=1))
    assert not report.satisfied
    assert "q != 1 (mod 4)" in report.violations


def test_validate_reports_every_violation(field_q7):
    report = validate(make(field_q7, "T1", d=3, k=2, c=0))
    assert "d is not even" in report.violations
    assert "q != 1 (mod 4)" in report.violations
    assert "(c/2)^((q+1)/2) != 1" in report.violations
    assert "k is not odd" in report.violations


def test_validate_t2_t3_t4(field_q13):
    assert validate(make(field_q13, "T2", d=7, k=1)).satisfied
    assert "d is not odd" in validate(make(field_q13, "T2", d=2, k=1)).violations
    assert validate(make(field_q13, "T3", d=7, k=0)).satisfied
    assert "c == 0" in validate(make(field_q13, "T3", d=7, c=0)).violations
    assert "q != -1 (mod d)" in validate(make(field_q13, "T4", d=3)).violations


def test_validate_t5(field_q11, field_q13):
    assert validate(make(field_q11, "T5", k=2)).satisfied
    assert "k is not even" in validate(make(field_q11, "T5", k=1)).violations
    assert "q != 3 (mod 8)" in validate(make(field_q13, "T5", k=2)).violations


def test_validate_t6(field_q5):
    assert validate(make(field_q5, "T6", u=1, v=1)).satisfied
    report = validate(make(field_q5, "T6", u=2, v=0))
    assert "u is not odd" in report.violations and "v is not odd" in report.violations


def test_validate_c_condition_counts(field_q13, field_q11):
    # the valid-c helper enumerates exactly the c-hypothesis solution coset
    sets = {
        ("T1", field_q13, 7),
        ("T6", field_q13, 7),
        ("T5", field_q11, 3),
    }
    # ...and every other nonzero c violates exactly the c-hypothesis
    c_violation = {"T5": "(c/2)^((q+1)/4) != 1", "T6": "(c/2)^((q+1)/2) != 1"}
    for tag, field, expected in sets:
        cs = valid_c_values(field, tag)
        assert len(cs) == expected
        valid = {int(c) for c in cs}
        assert len(valid) == expected
        kw = {"d": 2, "k": 1} if tag == "T1" else ({"u": 1, "v": 1} if tag == "T6" else {"k": 0})
        for c in cs:
            assert validate(FamilyParams(tag=tag, field=field, r=1, c=c, **kw)).satisfied
        if tag in c_violation:
            for n in set(range(1, field.q2)) - valid:
                report = validate(FamilyParams(tag=tag, field=field, r=1,
                                               c=field.from_int(n), **kw))
                assert report.violations == (c_violation[tag],)
    # brute-force cross-check for T1 at q=13: exactly the c with (c/2)^7 = 1
    f = field_q13
    brute = {int(c) for c in f.elements()
             if not c.is_zero() and (c / f.from_int(2)) ** 7 == f.one}
    assert {int(c) for c in valid_c_values(f, "T1")} == brute


@pytest.mark.parametrize("p, h", [(5, 1), (13, 1), (3, 2), (3, 4)])
def test_c_power_by_logs_matches_the_field_power(p, h, log_providers):
    """_c_power_is_one(field, c, m) tests (c/2)^e = 1, e = (q+1)//m, by
    discrete logs.  It equals c^e == 2^e by field powers at every c of
    F_{q^2}, zero included, for m = 2 and 4, under both log providers."""
    f = build_field(p, h)
    copies = list(log_providers(f))
    for m in (2, 4):
        e = (f.q + 1) // m
        two_e = f.from_int(pow(2, e, p))
        expected = [not c.is_zero() and c ** e == two_e for c in f.elements()]
        assert 0 < sum(expected) < f.q2 - 1
        for copy in copies:
            assert [_c_power_is_one(copy, c, m) for c in copy.elements()] == expected, (copy, m)


def test_valid_c_count_is_the_list_length(field_q5, field_q9, field_q11, field_q13):
    for field in (field_q5, field_q9, field_q11, field_q13):
        for tag in TAGS:
            assert valid_c_count(field, tag) == len(valid_c_values(field, tag)), (field, tag)


def test_valid_c_t3_is_every_nonzero(field_q5):
    cs = valid_c_values(field_q5, "T3")
    assert [int(c) for c in cs] == list(range(1, 25))


def test_family_params_normalizes_d(field_q11, field_q5):
    assert make(field_q11, "T5", k=2).d == 4
    assert make(field_q5, "T6", u=1, v=1).d == 2
    with pytest.raises(ValueError):
        make(field_q5, "T1", k=1)  # d required
    with pytest.raises(ValueError):
        FamilyParams(tag="T9", field=field_q5, r=1, c=field_q5.one)


# ---------------------------------------------------------------------------
# trinomial construction
# ---------------------------------------------------------------------------

def test_build_h_t1_example(field_q13):
    h = build_h(make(field_q13, "T1", d=2, k=1))
    assert h.canonical_terms() == ((0, 2), (8, 1), (92, 1))


def test_build_h_t5_example(field_q11):
    h = build_h(make(field_q11, "T5", k=2))
    assert h.canonical_terms() == ((0, 2), (6, 1), (48, 1))


def test_build_h_t6_example(field_q5):
    h = build_h(make(field_q5, "T6", u=1, v=1))
    assert h.canonical_terms() == ((0, 2), (1, 4), (4, 1))
    assert str(h) == "2 + 4x + x^4"


def test_build_h_merges_coincident_exponents(field_q13):
    # d = q+1 makes v1+k and qv+k coincide; the two terms merge to coefficient 2
    h = build_h(make(field_q13, "T1", d=14, k=1))
    assert h.canonical_terms() == ((0, 2), (14, 2))


def test_build_h_negative_exponent(field_q13):
    with pytest.raises(NegativeExponent):
        build_h(make(field_q13, "T1", d=2, k=-8))


def test_build_f_t1_example(field_q13):
    f = build_f(make(field_q13, "T1", d=2, k=1, r=5))
    assert f.canonical_terms() == ((5, 2), (101, 1), (1109, 1))
    assert f.reduce_mod().canonical_terms() == ((5, 2), (101, 2))


def test_build_f_requires_positive_r(field_q13):
    with pytest.raises(ValueError):
        build_f(make(field_q13, "T1", d=2, k=1, r=0))


def test_t3_t4_reduce_to_c_x_r(field_q5):
    f = field_q5
    for tag in ("T3", "T4"):
        for d in (1, 2, 3, 6):
            for k in (0, 1, 5):
                for r in (1, 7, 24):
                    params = make(f, tag, d=d, k=k, r=r, c=3)
                    reduced = build_f(params).reduce_mod()
                    assert reduced.canonical_terms() == ((r, 3),)
                    assert pointwise_equal(
                        f, build_f(params), poly_from_ints(f, [(r, 3)])
                    )


def test_t1_t2_variable_terms_merge(field_q13):
    # the two variable exponents of h are congruent after the q-1 substitution
    q = field_q13.q
    n = q * q - 1
    for tag, d, k in (("T1", 2, 3), ("T2", 7, 3)):
        params = make(field_q13, tag, d=d, k=k, r=5)
        h = build_h(params)
        (_, _), (e1, _), (e2, _) = h.canonical_terms()
        assert (e2 - e1) * (q - 1) % n == 0
        assert len(build_f(params).reduce_mod().terms) <= 2


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_t1_t2_reduce_to_a_monomial_iff_q_plus_1_divides_the_exponent(p):
    # the condition behind the known c10 failure: the variable terms of f merge
    # into c*x^r exactly when (q+1) | v1+k (T1) or (q+1) | u1+k (T2)
    f = build_field(p, 1)
    q = f.q
    seen = set()
    for tag in ("T1", "T2"):
        cs = valid_c_values(f, tag)[:3]
        for d in range(1, q + 2):
            if not validate(FamilyParams(tag=tag, field=f, r=1, c=cs[0], d=d, k=1)):
                continue
            de = derived_exponents(q, d)
            for k in default_k_window(tag, d):
                collapses = ((de.v1 if tag == "T1" else de.u1) + k) % (q + 1) == 0
                seen.add(collapses)
                for r in (1, 2, 5, q):
                    for c in cs:
                        params = FamilyParams(tag=tag, field=f, r=r, c=c, d=d, k=k)
                        assert validate(params)
                        assert (len(build_f(params).reduce_mod().terms) == 1) == collapses
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# gcd predicates vs the exhaustive oracle
# ---------------------------------------------------------------------------

def test_predicate_examples(field_q13, field_q11, field_q5):
    assert predicate(make(field_q13, "T1", d=2, k=1, r=5)) is True
    assert predicate(make(field_q5, "T6", u=1, v=1, r=1)) is False  # gcd(0, 3) = 3
    assert predicate(make(field_q11, "T5", k=2, r=7)) is True


def test_predicate_requires_hypotheses(field_q7):
    with pytest.raises(HypothesesNotSatisfied):
        predicate(make(field_q7, "T1", d=2, k=1))


def test_gcd_criterion_is_predicate_without_validation(field_q7, field_q13, field_q5):
    for params in ([make(field_q13, "T1", d=2, k=k, r=r) for k in (1, 3) for r in range(1, 30)]
                   + [make(field_q5, "T6", u=1, v=v, r=r) for v in (1, 3) for r in range(1, 25)]):
        assert gcd_criterion(params) == predicate(params), params
    # the sweep validates each group once and then asks only for the criterion
    assert gcd_criterion(make(field_q7, "T1", d=2, k=1, r=5)) is False


def test_predicate_oracle_agreement_spotchecks(field_q13, field_q11, field_q5):
    grids = [
        [make(field_q13, "T1", d=2, k=k, r=r) for k in (1, 3) for r in range(1, 41)],
        [make(field_q13, "T2", d=7, k=1, r=r) for r in range(1, 41)],
        [make(field_q11, "T5", k=k, r=r) for k in (0, 2) for r in range(1, 41)],
        [make(field_q5, "T6", u=u, v=v, r=r)
         for u in (1, 3) for v in (1, 3) for r in range(1, 25)],
    ]
    for grid in grids:
        for params in grid:
            oracle = is_permutation_of_field(params.field, build_f(params))
            assert predicate(params) == oracle.is_bijection, params


def test_oracle_verdict_confirms_examples(field_q13, field_q11):
    assert is_permutation_of_field(
        field_q13, build_f(make(field_q13, "T1", d=2, k=1, r=5))
    ).is_bijection
    assert is_permutation_of_field(
        field_q11, build_f(make(field_q11, "T5", k=2, r=7))
    ).is_bijection


# ---------------------------------------------------------------------------
# lemma identities
# ---------------------------------------------------------------------------

def test_lemma_v_identity_examples(field_q13, field_q5):
    assert lemma_v_identity(field_q13, 2, 1)
    assert lemma_v_identity(field_q5, 3, 0)


def test_lemma_u_identity_examples(field_q5, field_q13):
    assert lemma_u_identity(field_q5, 3, 0)
    assert lemma_u_identity(field_q13, 7, 1)


def test_lemma_identity_rejects_non_disjoint(field_q7):
    with pytest.raises(PartitionNotDisjoint):
        lemma_v_identity(field_q7, 4, 0)


@pytest.mark.parametrize("p,h", [(13, 1), (29, 1), (3, 4)])
def test_coset_identity_mutants_fail(p, h):
    # with walks over mu_{q+1} the audit amounts to a check at gamma, so a
    # wrong exponent or a wrong coset twist must each make it fail; at d = 1
    # omega = 1 and the twist is invisible
    f = build_field(p, h)
    q = f.q
    for d in range(2, q + 2):
        if (q + 1) % d or gcd(d, (q + 1) // d) != 1:
            continue
        de = derived_exponents(q, d)
        for k in (0, 1):
            for a, b, e, times_inverse in ((de.v1 + k, q * de.v + k, de.v1, False),
                                           (de.u1 + k, q * de.u + k + 2, de.u1, True)):
                assert _coset_identity(f, d, de.s, a, b, e, times_inverse)
                assert not _coset_identity(f, d, de.s, a + 1, b, e, times_inverse)
                assert not _coset_identity(f, d, de.s % d + 1, a, b, e, times_inverse)


def test_lemma_d4_identity(field_q11, field_q19, field_q13):
    assert lemma_d4_identity(field_q11)
    assert lemma_d4_identity(field_q19)
    with pytest.raises(BadCongruence):
        lemma_d4_identity(field_q13)


def test_corollary_negative(field_q7, field_q11, field_q13):
    two7 = field_q7.from_int(2)
    assert corollary_negative(field_q7, 1, 1, two7, range(1, 49))
    two11 = field_q11.from_int(2)
    assert corollary_negative(field_q11, 1, 1, two11, range(1, 25))
    with pytest.raises(BadCongruence):
        corollary_negative(field_q13, 1, 1, field_q13.from_int(2), range(1, 5))
    with pytest.raises(ValueError):
        corollary_negative(field_q7, 2, 1, two7, range(1, 5))


def test_t6_even_v_collapses_on_mu(field_q5, field_q13):
    for f in (field_q5, field_q13):
        c = f.from_int(2)
        assert t6_even_v_is_constant_on_mu(f, 1, 2, c)
        # hence x^r h(x)^(q-1) acts on mu as c^(q-1) x^r
        params = FamilyParams(tag="T6", field=f, r=3, c=c, u=1, v=2)
        h = build_h(params)
        factor = c ** (f.q - 1)
        for x in make_mu(f).elements():
            g = x ** 3 * evaluate(f, h, x) ** (f.q - 1)
            assert g == factor * x ** 3


def test_default_k_window():
    assert list(default_k_window("T1", 2)) == [1, 3]
    assert list(default_k_window("T2", 7)) == [1, 3, 5, 7, 9, 11, 13]
    assert list(default_k_window("T5", 4)) == [0, 2, 4, 6]
    assert list(default_k_window("T3", 3)) == [0, 1, 2, 3, 4, 5]
    assert list(default_k_window("T6", 2)) == []