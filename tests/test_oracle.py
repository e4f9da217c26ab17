from math import gcd

import pytest

from ppforge import (
    SparsePoly,
    build_field,
    evaluate,
    evaluate_on_field,
    is_permutation_of_field,
    is_permutation_of_mu,
    make_mu,
    pointwise_equal,
)
from ppforge import ffcore


def x_power(field, n, coeff=None):
    return SparsePoly(field, [(n, coeff if coeff is not None else field.one)])


def brute_images(field, poly):
    """Independent per-element evaluation: repeated multiplication only."""
    out = []
    for x in field.elements():
        acc = field.zero
        for e, c in poly.terms:
            term = field.one if e == 0 else x
            for _ in range(e - 1):
                term = term * x
            if e == 0 and x.is_zero():
                term = field.one
            acc = acc + c * term
        out.append(int(acc))
    return out


def test_evaluate_basics(field_q13):
    f = field_q13
    c = SparsePoly(f, [(0, f.from_int(7))])
    assert evaluate(f, c, f.generator) == f.from_int(7)
    g = f.generator
    assert evaluate(f, x_power(f, 5), g) == g ** 5
    h = SparsePoly.from_int_pairs(f, [(0, 2), (8, 1), (92, 1)])
    assert evaluate(f, h, f.one) == f.from_int(4)


def test_evaluate_at_zero_uses_power_conventions(field_q13):
    f = field_q13
    poly = SparsePoly(f, [(0, f.from_int(2)), (3, f.one)])
    assert evaluate(f, poly, f.zero) == f.from_int(2)
    assert evaluate(f, x_power(f, 3), f.zero) == f.zero


def least_pair(images):
    """Brute force: the least input whose image recurs, and its least partner."""
    for x1, y in enumerate(images):
        if images.count(y) > 1:
            return x1, images.index(y, x1 + 1)
    return None


def walk_cases(f):
    """Polynomials covering every corner of the oracle's walk, by name."""
    g = f.generator
    n = f.q2 - 1
    two = f.from_int(2)
    return {
        # gcd(7, q^2 - 1) = 1 for q = 5, 9, 25, 81
        "bijection": x_power(f, 7, g),
        "three_terms": SparsePoly(f, [(0, f.from_int(2)), (3, f.one), (17, -g)]),
        "four_terms": SparsePoly(f, [(0, g), (1, g ** 3), (5, f.one), (9, -f.one)]),
        "zero": SparsePoly(f, []),
        "constant": SparsePoly(f, [(0, g)]),
        "exponent_0_mod_n": SparsePoly(f, [(n, g), (2 * n, f.one)]),
        "constant_cancels_off_0": SparsePoly(f, [(0, two), (n, -two), (3, g)]),
        "cancels_after_folding": SparsePoly(f, [(5, g), (5 + n, -g), (1, f.one)]),
        "zero_on_non_squares": SparsePoly(f, [(0, f.one), (n // 2, f.one)]),
        "zero_part_sum_on_F_q": SparsePoly(f, [(1, f.one), (f.q, -f.one), (2, g)]),
    }


def assert_kernel_matches_evaluate(f, polys):
    for poly in polys:
        expected = [int(evaluate(f, poly, x)) for x in f.elements()]
        assert evaluate_on_field(f, poly) == expected, poly
        report = is_permutation_of_field(f, poly)
        assert report.is_bijection == (len(set(expected)) == f.q2), poly
        assert report.first_collision == least_pair(expected), poly


def test_tabled_evaluation_matches_slow_path(field_q5, field_q9, field_q25):
    for f in (field_q5, field_q9, field_q25):
        assert f.tables_supported()
        assert_kernel_matches_evaluate(f, walk_cases(f).values())
    # at degree 8 evaluate() takes about a second per case, so only the
    # cases that reach the zero sentinels run there
    f = build_field(3, 4)
    cases = walk_cases(f)
    assert_kernel_matches_evaluate(f, [cases[name] for name in (
        "bijection", "zero", "constant", "exponent_0_mod_n",
        "constant_cancels_off_0", "zero_on_non_squares")])


def test_untabled_walk_matches_slow_path(field_q5, field_q9, monkeypatch):
    monkeypatch.setattr(ffcore, "TABLE_LIMIT", 0)
    for f in (field_q5, field_q9):
        assert not f.tables_supported()
        assert_kernel_matches_evaluate(f, walk_cases(f).values())


def test_fold_units_merges_and_cancels(field_q5):
    f = field_q5
    n = f.q2 - 1
    poly = SparsePoly(f, [(0, f.one), (n, f.one), (3, f.one), (3 + 2 * n, -f.one)])
    assert poly.fold_units() == SparsePoly(f, [(0, f.from_int(2))])


def test_evaluate_on_field_matches_repeated_multiplication(field_q5):
    f = field_q5
    poly = SparsePoly(f, [(0, f.from_int(3)), (2, f.one), (7, f.generator)])
    assert evaluate_on_field(f, poly) == brute_images(f, poly)


def test_identity_is_permutation(field_q5, field_q13):
    for f in (field_q5, field_q13):
        report = is_permutation_of_field(f, x_power(f, 1))
        assert report.is_bijection
        assert report.first_collision is None
        assert report.domain_size == f.q2


def test_square_is_not_permutation(field_q5):
    report = is_permutation_of_field(field_q5, x_power(field_q5, 2))
    assert not report.is_bijection
    # independent oracle: scan all colliding pairs, take the lexicographic least
    images = brute_images(field_q5, x_power(field_q5, 2))
    pairs = [
        (i, j)
        for i in range(len(images))
        for j in range(i + 1, len(images))
        if images[i] == images[j]
    ]
    assert report.first_collision == min(pairs)


def test_x5_permutes_f169(field_q13):
    assert gcd(5, 168) == 1
    assert is_permutation_of_field(field_q13, x_power(field_q13, 5)).is_bijection


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (3, 2)])
def test_monomial_criterion(p, h):
    from ppforge import build_field

    f = build_field(p, h)
    n_order = f.q2 - 1
    for n in range(1, f.q2):
        expected = gcd(n, n_order) == 1
        assert is_permutation_of_field(f, x_power(f, n)).is_bijection == expected


def test_mu_identity_and_square(field_q5):
    mu = make_mu(field_q5)
    assert is_permutation_of_mu(mu, lambda x: x).is_bijection
    report = is_permutation_of_mu(mu, lambda x: x * x)
    assert not report.is_bijection
    assert report.domain_size == 6


def test_mu_agw_map_bijective(field_q13):
    f = field_q13
    mu = make_mu(f)
    h = SparsePoly.from_int_pairs(f, [(0, 2), (8, 1), (92, 1)])
    report = is_permutation_of_mu(
        mu, lambda x: x ** 5 * evaluate(f, h, x) ** (f.q - 1)
    )
    assert report.is_bijection


def test_mu_image_outside_subgroup_reported(field_q5):
    f = field_q5
    mu = make_mu(f)
    assert f.generator not in mu
    report = is_permutation_of_mu(mu, lambda x: f.generator)
    assert not report.is_bijection
    assert report.outside_mu == 1  # the least root of unity is 1 itself


def test_pointwise_equal(field_q5):
    f = field_q5
    a = SparsePoly(f, [(3, f.one), (0, f.from_int(2))])
    assert pointwise_equal(f, a, a)
    # Fermat: x^(q^2) agrees with x everywhere
    assert pointwise_equal(f, x_power(f, f.q2), x_power(f, 1))
    assert not pointwise_equal(f, x_power(f, 2), x_power(f, 1))


def test_pointwise_equal_is_an_equivalence(field_q5):
    f = field_q5
    polys = [
        x_power(f, 1),
        x_power(f, f.q2),
        x_power(f, 1).reduce_mod(),
        SparsePoly(f, [(2, f.one)]),
    ]
    for a in polys:
        assert pointwise_equal(f, a, a)
        for b in polys:
            assert pointwise_equal(f, a, b) == pointwise_equal(f, b, a)
            for c in polys:
                if pointwise_equal(f, a, b) and pointwise_equal(f, b, c):
                    assert pointwise_equal(f, a, c)


def test_exponent_reduction_never_changes_verdicts(field_q5, field_q9):
    for f in (field_q5, field_q9):
        g = f.generator
        polys = [
            SparsePoly(f, [(0, f.from_int(2)), (3, f.one), (3 + f.q2 - 1, f.one)]),
            SparsePoly(f, [(1, g), (2 * f.q2, f.one)]),
            x_power(f, f.q2 + 5, g),
        ]
        for poly in polys:
            folded = poly.reduce_mod()
            assert pointwise_equal(f, poly, folded)
            assert (
                is_permutation_of_field(f, poly).is_bijection
                == is_permutation_of_field(f, folded).is_bijection
            )


def test_report_invariants(field_q5):
    good = is_permutation_of_field(field_q5, x_power(field_q5, 1))
    bad = is_permutation_of_field(field_q5, x_power(field_q5, 2))
    assert good.is_bijection == (good.first_collision is None)
    assert bad.is_bijection == (bad.first_collision is None)
    assert bool(good) and not bool(bad)


def test_concurrent_readers_share_a_field():
    # a fresh field, so the lazy log tables are first built under contention
    from concurrent.futures import ThreadPoolExecutor
    from ppforge import build_field
    from ppforge.ffcore import _build_field_cached

    _build_field_cached.cache_clear()
    f = build_field(13, 1)
    poly = SparsePoly.from_int_pairs(f, [(0, 2), (8, 1), (92, 1)])
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: evaluate_on_field(f, poly), range(16)))
    expected = [int(evaluate(f, poly, x)) for x in f.elements()]
    assert all(r == expected for r in results)
