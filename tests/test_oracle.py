import math
import time
from collections import Counter
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from ppforge import ffcore, oracle
from ppforge.families import FamilyParams, build_f, gcd_criterion, valid_c_values
from reference import poly_from_ints


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
    h = poly_from_ints(f, [(0, 2), (8, 1), (92, 1)])
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


def agw_trinomial(f):
    """x + a*x^q + x^(2q-1) for the first a in F_q such that a^2 - 4 is a
    nonzero square of F_q, or None if there is none (q = 5).

    On mu_{q+1}, h(y) = 1 + a*y + y^2 has h(y)^q = y^-2 h(y) and no root
    (its roots lie in F_q and are not +-1), so x^1 h(x)^(q-1) = x^-1 permutes
    mu_{q+1} and, by the AGW criterion, f = x h(x^(q-1)) permutes F_{q^2}.
    Its exponents differ by multiples of q - 1, so the oracle's walk splits.
    """
    q = f.q
    for j in range(q - 1):
        a = f.generator ** ((q + 1) * j)  # the nonzero elements of F_q
        disc = a * a - f.from_int(4 % f.p)
        if not disc.is_zero() and disc ** ((q - 1) // 2) == f.one:
            return SparsePoly(f, [(1, f.one), (q, a), (2 * q - 1, f.one)])
    return None


def walk_cases(f):
    """Polynomials covering every corner of the oracle's walk, by name.

    The walk splits x = g^t into D = q - 1 runs of q + 1 points when q - 1
    divides every difference of folded exponents; the cases from
    "single_term" on plant such a split.
    """
    g = f.generator
    n = f.q2 - 1
    q = f.q
    two = f.from_int(2)
    trinomial = agw_trinomial(f)
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
        # one term: no exponent differences, so the walk splits
        "single_term": x_power(f, 2, g),
        # D = q - 1 with a constant term: not a bijection
        "constant_plus_planted_D": SparsePoly(f, [(0, two), (q - 1, g)]),
        # D = q - 1, and the first run meets the zero image at t = 0
        "zero_in_base_walk": SparsePoly(f, [(1, g), (q, -g)]),
        # e_0 = 0 and every exponent a multiple of D = q - 1: no shift at all
        "e0_zero_rest_0_mod_D": SparsePoly(f, [(0, g), (q - 1, f.one), (2 * (q - 1), two)]),
        **({"agw_trinomial": trinomial} if trinomial is not None else {}),
    }


def assert_kernel_matches_evaluate(fields, polys):
    """The kernel on each of the fields (copies of one field) against
    evaluate() at every element."""
    for poly in polys:
        expected = [int(evaluate(poly.field, poly, x)) for x in poly.field.elements()]
        bijection, pair = len(set(expected)) == len(expected), least_pair(expected)
        for f in fields:
            assert evaluate_on_field(f, poly) == expected, poly
            report = is_permutation_of_field(f, poly)
            assert report.is_bijection == bijection and report.first_collision == pair, poly


def test_tabled_evaluation_matches_slow_path(field_q9, field_q25, log_providers):
    # extension fields with the flat Zech table and without it
    for f in (field_q9, field_q25, build_field(3, 3)):
        copies = list(log_providers(f))
        assert [copy.logs().zech_table is not None for copy in copies] == [True, False]
        assert_kernel_matches_evaluate(copies, walk_cases(f).values())
    # at degree 8 evaluate() takes about a second per case, so only the
    # cases that reach the zero sentinels run there
    f = build_field(3, 4)
    cases = walk_cases(f)
    assert_kernel_matches_evaluate(list(log_providers(f)), [cases[name] for name in (
        "bijection", "zero", "constant", "exponent_0_mod_n",
        "constant_cancels_off_0", "zero_on_non_squares")])


def test_untabled_walk_matches_slow_path(field_q5, field_q13):
    # prime fields keep no flat Zech table at any size
    for f in (field_q5, field_q13):
        assert f.logs().zech_table is None
        assert_kernel_matches_evaluate([f], walk_cases(f).values())


def test_agw_trinomial_permutes_on_both_paths(field_q9, field_q13, log_providers):
    for f in (field_q9, field_q13, build_field(5, 2), build_field(3, 3)):
        for copy in log_providers(f):
            assert is_permutation_of_field(copy, agw_trinomial(f)).is_bijection, copy
    assert agw_trinomial(build_field(5, 1)) is None


def test_unsplit_walk_stops_at_the_first_repeat(field_q13, field_q25, log_providers,
                                                monkeypatch):
    """x^3 + x^5 has D = 1 (q - 1 does not divide 2), so its walk streams:
    the bijection test labels no point past its first repeated image, one
    label at a time, with the flat Zech table and without it, and the walk
    calls no power_blocks."""
    def first_repeat(f):  # the first t whose image f(g^t) repeats
        seen = {int(evaluate(f, poly(f), f.zero))}
        for t in range(f.q2 - 1):
            y = int(evaluate(f, poly(f), f.generator ** t))
            if y in seen:
                return t
            seen.add(y)

    def poly(f):
        return SparsePoly(f, [(3, f.one), (5, f.one)])

    assert first_repeat(field_q13) == 19 and first_repeat(field_q25) == 18

    walked, blocks = [], []
    labels = ffcore.TwoLevelLogs.labels
    power_blocks = ffcore.FieldSpec.power_blocks

    def counted_labels(self, *args):
        for label in labels(self, *args):
            walked.append(label)
            yield label

    def counted_power_blocks(self, *args):
        for cols in power_blocks(self, *args):
            blocks.append(len(cols[0]))
            yield cols

    monkeypatch.setattr(ffcore.TwoLevelLogs, "labels", counted_labels)
    monkeypatch.setattr(ffcore.FieldSpec, "power_blocks", counted_power_blocks)
    for f, repeat in ((field_q13, 19), (field_q25, 18)):
        for copy in log_providers(f):
            walked.clear()
            blocks.clear()
            assert not is_permutation_of_field(copy, poly(f))
            assert len(walked) == repeat + 1 and not blocks, copy


@pytest.fixture
def rotations(monkeypatch):
    """The bit sets that oracle._rotate returns, in call order."""
    rotated = []
    rotate = oracle._rotate

    def counted_rotate(*args):
        rotated.append(rotate(*args))
        return rotated[-1]

    monkeypatch.setattr(oracle, "_rotate", counted_rotate)
    return rotated


def test_split_walk_stops_at_the_first_colliding_run(field_q13, rotations):
    """Split walks on F_169 (D = q - 1 = 12 runs of q + 1 = 14 points) whose
    first repeated image is in run 2, 4 or 6.  D = 0b1100, so the doubling's
    unions hold runs 0..1, 0..2, 0..5 and 0..11 after its 1st to 4th
    rotation: run 2, the one-run step, is tested at the 2nd, run 4 at the
    3rd and run 6 at the 4th, where one rotation per run would take 2, 4
    and 6 of q - 2 = 11.

    x^2 + g x^14 has gcd(e_0, q - 1) = 2, so run 6 (t = 84) is a copy of the
    base run: its shift has order 6 < D, and the walk stops before the first
    rotation.  x + g x^85 has gcd(e_0, q - 1) = 1; its run 4 first meets an
    earlier run at a label that its rotation wraps past n."""
    f, g = field_q13, field_q13.generator
    for poly, first_run, steps in ((SparsePoly(f, [(1, f.one), (25, g)]), 2, 2),
                                   (SparsePoly(f, [(1, f.one), (85, g)]), 4, 3),
                                   (SparsePoly(f, [(2, f.one), (14, g)]), 6, 0)):
        seen = {int(evaluate(f, poly, f.zero))}
        for repeat in range(f.q2 - 1):
            y = int(evaluate(f, poly, g ** repeat))
            if y in seen:
                break
            seen.add(y)
        assert repeat // (f.q + 1) == first_run, poly
        rotations.clear()
        assert not is_permutation_of_field(f, poly)
        assert len(rotations) == steps, poly
        assert all(run < 1 << f.q2 - 1 for run in rotations)


def test_split_walk_tests_the_label_of_f0_against_every_run(field_q5):
    """Hand-made walks on F_25 (n = 24): D = 4 runs of 6 labels, the base
    run 0..5 and shift 6, so the runs cover every label below n once.  The
    label of f(0) repeats one iff it is below n.  A polynomial's walk never
    gets here with f(0) != 0: its constant term makes e_0 = 0, so the shift
    is 0 and the first rotation repeats the base run."""
    for zero_label, collides in ((24, False), (20, True), (3, True)):
        walk = oracle._Walk(zero_label, range(6), 4, 6)
        assert oracle._collides(field_q5, walk) == collides, zero_label


def test_split_walk_exits_on_its_shift_order(field_q5, field_q13, rotations):
    """Split walks x^(e_0) H(x^(q-1)) on F_25 and F_169 for every e_0 up to
    2(q - 1) and a few H.  The shift e_0*(q + 1) mod n has order
    (q - 1)/gcd(e_0, q - 1), so gcd(e_0, q - 1) > 1 repeats the base run
    within D runs: a non-bijection before any rotation.  gcd(e_0, q - 1) = 1
    gives the shift order D exactly, and such a walk still doubles, with at
    most 2 log2(D) rotations; the bijections among them would be lost to an
    exit at order D.  Every verdict and least pair is evaluate()'s."""
    verdicts = Counter()
    for f in (field_q5, field_q13):
        q, g = f.q, f.generator
        hs = [[(0, f.one)], [(0, g)], [(0, f.one), (1, g)], [(0, f.one), (2, g ** 3)],
              [(0, f.one), (1, f.from_int(2)), (2, f.one)]]
        for e0 in range(1, 2 * (q - 1) + 1):
            for h in hs:
                poly = SparsePoly(f, [(e0 + k * (q - 1), c) for k, c in h])
                expected = [int(evaluate(f, poly, x)) for x in f.elements()]
                bijection = len(set(expected)) == f.q2
                rotations.clear()
                report = is_permutation_of_field(f, poly)
                assert report.is_bijection == bijection, poly
                assert report.first_collision == least_pair(expected), poly
                coprime = gcd(e0, q - 1) == 1
                if coprime:
                    assert len(rotations) <= 2 * math.log2(q - 1), poly
                else:
                    assert not bijection and not rotations, poly
                verdicts[coprime, bijection, bool(rotations)] += 1
    assert verdicts[True, True, True] > 10 and verdicts[True, False, True] > 10
    assert verdicts[False, False, False] > 10
    assert sum(verdicts.values()) == 5 * 2 * (4 + 12)


def test_split_walk_rotates_about_twice_log2_q_times(rotations):
    """The permuting T6 tuple u = v = 1, r = 23, c = 2 at q = 509: D = 508 =
    0b111111100, so 8 doublings and 6 one-run extensions, where one rotation
    per run would take q - 2 = 507."""
    f = build_field(509, 1)
    poly = build_f(FamilyParams(tag="T6", field=f, r=23, c=f.from_int(2), u=1, v=1))
    assert is_permutation_of_field(f, poly).is_bijection
    assert len(rotations) == 14 <= 2 * (f.q - 1).bit_length()


def test_ring_verdicts_match_the_label_stream():
    """On the degree-8 field, where evaluate() is too slow to take every
    case, the bitset verdict of every walk case and of T1 trinomials against
    the images that evaluate_on_field expands run by run."""
    f = build_field(3, 4)
    params = [FamilyParams(tag="T1", field=f, r=r, c=c, d=2, k=k)
              for k in (1, 3) for r in range(1, 7) for c in valid_c_values(f, "T1")[:4]]
    verdicts = Counter()
    for poly in [*walk_cases(f).values(), *map(build_f, params)]:
        bijection = len(set(evaluate_on_field(f, poly))) == f.q2
        assert is_permutation_of_field(f, poly).is_bijection == bijection, poly
        verdicts[bijection] += 1
    assert verdicts[True] > 10 and verdicts[False] > 10


# (11, 1) and (5, 2): D = q - 1 = 0b1010 and 0b11000, digit patterns of the
# doubling that D = 2, 4, 6, 8 and 12 lack
ORACLE_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2)]


@st.composite
def sparse_polys(draw):
    """A random sparse polynomial on a small field: exponents e_0 + D*j for a
    planted divisor D of n, plus e_0 + 1 when D = 1, so that D is exactly 1.

    Only multiples of q - 1 split the walk, so half the draws plant
    D = q - 1, and split bijections come up often enough to test the
    doubling's one-run steps; the other half draw D among all divisors.
    Half the draws take e_0 = 0, a nonzero constant term f(0)."""
    f = build_field(*draw(st.sampled_from(ORACLE_FIELDS)))
    n = f.q2 - 1
    if draw(st.booleans()):
        planted = f.q - 1
    else:
        planted = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    e0 = 0 if draw(st.booleans()) else draw(st.integers(1, 2 * n))
    exponents = [e0] + [e0 + planted * j for j in draw(st.lists(
        st.integers(1, 2 * n // planted), max_size=3))]
    if planted == 1:
        exponents.append(e0 + 1)
    coeffs = draw(st.lists(st.integers(1, f.q2 - 1),
                           min_size=len(exponents), max_size=len(exponents)))
    return SparsePoly(f, [(e, f.from_int(c)) for e, c in zip(exponents, coeffs)])


# the fixture only hands out fresh field copies, so it may serve every example
@given(poly=sparse_polys())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_oracle_matches_brute_force_on_random_polys(poly, log_providers):
    # extension fields under both log providers; prime fields take
    # two-level logs under both
    f = poly.field
    expected = [int(evaluate(f, poly, x)) for x in f.elements()]
    bijection, pair = len(set(expected)) == f.q2, least_pair(expected)
    for copy in log_providers(f):
        report = is_permutation_of_field(copy, poly)
        assert report.is_bijection == bijection and report.first_collision == pair


def t6_polys(f, rs):
    return [build_f(FamilyParams(tag="T6", field=f, r=r, c=f.from_int(2), u=1, v=1))
            for r in rs]


def test_polys_with_one_h_share_one_cache_entry(field_q13, field_q25):
    """T6 with u = v = 1 and c = 2 at r = 1 and r = 3: f = x^r h(x^(q-1))
    with one h, so their walks share H, and one LH serves both."""
    for f in (field_q13, field_q25):
        cache = f.logs().lh_cache
        cache.clear()
        walks = [oracle._walk(f, poly.reduce_mod().terms) for poly in t6_polys(f, (1, 3))]
        assert all(walk.runs == f.q - 1 for walk in walks)
        assert len(cache) == 1 and walks[0].base is walks[1].base
        assert walks[0].step != walks[1].step


def test_verdicts_do_not_depend_on_the_cache(field_q13, field_q25, monkeypatch):
    """T6 and T1 tuples with the cache kept, cleared before every call, and
    bounded to one LH at a time (LH_CACHE_LABELS = 1)."""
    for f in (field_q13, field_q25):
        polys = t6_polys(f, range(1, 40)) + [
            build_f(params) for params in (
                FamilyParams(tag="T1", field=f, r=r, c=c, d=2, k=1)
                for r in range(1, 12) for c in valid_c_values(f, "T1")[:3])]
        kept = [is_permutation_of_field(f, poly).is_bijection for poly in polys]
        cleared = []
        for poly in polys:
            f.logs().lh_cache.clear()
            cleared.append(is_permutation_of_field(f, poly).is_bijection)
        monkeypatch.setattr(oracle, "LH_CACHE_LABELS", 1)
        bounded = [is_permutation_of_field(f, poly).is_bijection for poly in polys]
        assert len(f.logs().lh_cache) == 1
        monkeypatch.undo()
        assert kept == cleared == bounded
        assert 0 < sum(kept) < len(kept), f


def test_evaluation_does_not_depend_on_the_decoded_field_cache(field_q13, field_q25,
                                                              log_providers, monkeypatch):
    """evaluate_on_field with the provider's exps() kept, cleared before
    every call, and bounded to nothing (EXPS_CACHE_LABELS = 0), with the
    flat Zech table and without it; the provider keeps one decoded field in
    the first case only."""
    for f in (field_q13, field_q25):
        g = f.generator
        polys = [x_power(f, 5), SparsePoly(f, [(0, g), (1, g), (f.q + 3, -g)])] + t6_polys(f, (1, 2))
        expected = [[int(evaluate(f, poly, x)) for x in f.elements()] for poly in polys]
        for copy in log_providers(f):
            logs = copy.logs()
            kept = [evaluate_on_field(copy, poly) for poly in polys]
            assert logs._exps is logs.exps()
            cleared = []
            for poly in polys:
                logs._exps = None
                cleared.append(evaluate_on_field(copy, poly))
            monkeypatch.setattr(ffcore, "EXPS_CACHE_LABELS", 0)
            logs._exps = None
            bounded = [evaluate_on_field(copy, poly) for poly in polys]
            assert logs._exps is None
            monkeypatch.undo()
            assert kept == cleared == bounded == expected


def test_t6_at_the_largest_prime_field_matches_gcd_criterion():
    """q = 8161, a prime with q^2 just under 2^26: T6 u = v = 1, c = 2.
    r = 13 permutes; the split walk labels its base run with Zech logarithms
    computed per point from the O(q) lists, and builds no q^2 table."""
    f = build_field(8161, 1)
    for r in (13, 15, 17, 23):
        params = FamilyParams(tag="T6", field=f, r=r, c=f.from_int(2), u=1, v=1)
        assert is_permutation_of_field(f, build_f(params)).is_bijection == gcd_criterion(params), r
    assert gcd_criterion(FamilyParams(tag="T6", field=f, r=13, c=f.from_int(2), u=1, v=1))
    assert f.logs().zech_table is None


@pytest.mark.parametrize("p,h", [(3, 6), (23, 2)])
def test_t1_beyond_the_tables_matches_gcd_criterion(p, h):
    """Extension fields above TABLE_LIMIT (q^2 = 3^12 and 23^4) compute
    each Zech logarithm of their split walks from the O(q) lists: T1 tuples
    against gcd_criterion, each in well under the seconds that encoding
    every run took."""
    f = build_field(p, h)
    assert f.logs().zech_table is None
    c = valid_c_values(f, "T1")[0]
    verdicts = Counter()
    for k in (1, 3):
        for r in (1, 3, 5, 7):
            params = FamilyParams(tag="T1", field=f, r=r, c=c, d=2, k=k)
            start = time.perf_counter()
            verdict = is_permutation_of_field(f, build_f(params)).is_bijection
            assert time.perf_counter() - start < 1.0, params
            assert verdict == gcd_criterion(params), params
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


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
    h = poly_from_ints(f, [(0, 2), (8, 1), (92, 1)])
    report = is_permutation_of_mu(
        mu, lambda x: x ** 5 * evaluate(f, h, x) ** (f.q - 1)
    )
    assert report.is_bijection


def test_mu_first_collision_is_the_least_pair(field_q13):
    # against a scan of every pair of canonical inputs; x -> x^4 on mu_14
    # is 2-to-1, and the constant map sends every root outside mu_14
    f = field_q13
    mu = make_mu(f)
    roots = sorted(int(x) for x in mu.elements())
    for fn in (lambda x: x ** 4, lambda x: x ** 7 * mu.gamma, lambda x: f.generator):
        report = is_permutation_of_mu(mu, fn)
        images = {a: int(fn(f.from_int(a))) for a in roots}
        pairs = [(a, b) for a in roots for b in roots if a < b and images[a] == images[b]]
        assert not report.is_bijection
        assert report.first_collision == min(pairs)
    assert is_permutation_of_mu(mu, lambda x: x ** 3).first_collision is None


def test_distinct_stops_at_the_first_repeat():
    labels = iter([0, 4, 2, 4, 1])
    assert not oracle.distinct(5, labels)
    assert list(labels) == [1]
    assert oracle.distinct(5, [3, 0, 4, 1, 2]) and oracle.distinct(5, [])


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
    poly = poly_from_ints(f, [(0, 2), (8, 1), (92, 1)])
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: evaluate_on_field(f, poly), range(16)))
    expected = [int(evaluate(f, poly, x)) for x in f.elements()]
    assert all(r == expected for r in results)
