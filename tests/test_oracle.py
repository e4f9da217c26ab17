import csv
import io
import time
import tracemalloc
from collections import Counter
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings
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
from ppforge import cli, ffcore, oracle
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


def assert_kernel_matches_evaluate(polys):
    """The kernel against evaluate() at every element."""
    for poly in polys:
        f = poly.field
        expected = [int(evaluate(f, poly, x)) for x in f.elements()]
        assert evaluate_on_field(f, poly) == expected, poly
        report = is_permutation_of_field(f, poly)
        assert report.is_bijection == (len(set(expected)) == len(expected)), poly
        assert report.first_collision == least_pair(expected), poly


def test_extension_field_walks_match_slow_path(field_q9, field_q25):
    for f in (field_q9, field_q25, build_field(3, 3)):
        assert_kernel_matches_evaluate(walk_cases(f).values())
    # at degree 8 evaluate() takes about a second per case, so only the
    # cases that reach the zero sentinels run there
    f = build_field(3, 4)
    cases = walk_cases(f)
    assert_kernel_matches_evaluate([cases[name] for name in (
        "bijection", "zero", "constant", "exponent_0_mod_n",
        "constant_cancels_off_0", "zero_on_non_squares")])


def test_prime_field_walks_match_slow_path(field_q5, field_q13):
    for f in (field_q5, field_q13):
        assert_kernel_matches_evaluate(walk_cases(f).values())


def test_agw_trinomial_permutes_on_both_paths(field_q9, field_q13):
    # prime and extension fields
    for f in (field_q9, field_q13, build_field(5, 2), build_field(3, 3)):
        assert is_permutation_of_field(f, agw_trinomial(f)).is_bijection, f
    assert agw_trinomial(build_field(5, 1)) is None


def test_unsplit_walk_stops_at_the_first_repeat(field_q13, field_q25, monkeypatch):
    """x^3 + x^5 has D = 1 (q - 1 does not divide 2), so its walk streams:
    the bijection test labels no point past its first repeated image, one
    label at a time, and the walk calls no power walk (power_columns)."""
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

    walked, powers = [], []
    labels = ffcore.TwoLevelLogs.labels
    power_columns = ffcore.FieldSpec.power_columns

    def counted_labels(self, *args):
        for label in labels(self, *args):
            walked.append(label)
            yield label

    def counted_power_columns(self, *args):
        powers.append(args)
        return power_columns(self, *args)

    monkeypatch.setattr(ffcore.TwoLevelLogs, "labels", counted_labels)
    monkeypatch.setattr(ffcore.FieldSpec, "power_columns", counted_power_columns)
    for f, repeat in ((field_q13, 19), (field_q25, 18)):
        walked.clear()
        powers.clear()
        assert not is_permutation_of_field(f, poly(f))
        assert len(walked) == repeat + 1 and not powers, f


@pytest.fixture
def distinct_sizes(monkeypatch):
    """The size of every oracle.distinct call, in call order."""
    sizes = []
    distinct = oracle.distinct

    def counted_distinct(size, labels):
        sizes.append(size)
        return distinct(size, labels)

    monkeypatch.setattr(oracle, "distinct", counted_distinct)
    return sizes


def test_split_walk_with_a_constant_term_takes_the_order_exit(field_q5, field_q9, field_q13,
                                                               monkeypatch):
    """Split polynomials H(x^(q-1)) = c_0 + sum c_j x^(k_j(q-1)) with a
    nonzero constant term c_0 on F_25, F_81 and F_169, k_j up to q + 1
    (x^n folds to itself, not to 1).  f(0) = c_0 has a label below n, and
    permutes never compares it: the constant term makes e_0 = 0 and
    gcd(0, q - 1) = q - 1 > 1, so the order exit refuses f before LH is
    read, with no AGW test and no lh_cache entry.  Each is a non-bijection
    by evaluate()."""
    calls = []
    monkeypatch.setattr(oracle, "agw_failure", lambda *args: calls.append(args))
    count = 0
    for f in (field_q5, field_q9, field_q13):
        q, g = f.q, f.generator
        for c0 in (f.one, g, -g ** 3):
            for h in ([], [(1, g)], [(2, f.one), (q + 1, g ** 3)], [(q, f.from_int(2))],
                      [(1, f.one), (2, -f.one), (q - 1, g)]):
                poly = SparsePoly(f, [(0, c0)] + [(k * (q - 1), c) for k, c in h])
                terms = poly.reduce_mod().terms
                assert terms[0][0] == 0 and not any((e % (q - 1) for e, _ in terms))
                f.logs().lh_cache.clear()
                assert not oracle.permutes(f, terms), poly
                assert not f.logs().lh_cache and not calls, poly
                assert len({int(evaluate(f, poly, x)) for x in f.elements()}) < f.q2, poly
                count += 1
    assert count == 3 * 3 * 5


def test_split_walk_exits_on_its_shift_order(field_q5, field_q13, distinct_sizes):
    """Split walks x^(e_0) H(x^(q-1)) on F_25 and F_169 for every e_0 up to
    2(q - 1) and a few H.  The shift e_0*(q + 1) mod n has order
    (q - 1)/gcd(e_0, q - 1), so gcd(e_0, q - 1) > 1 repeats the base run
    within D runs: a non-bijection that reads no label.  gcd(e_0, q - 1) = 1
    gives the shift order D exactly, and the walk then marks its base run's
    labels mod q + 1, one oracle.distinct call of size q + 1 at most.  Every
    verdict and least pair is evaluate()'s."""
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
                distinct_sizes.clear()
                report = is_permutation_of_field(f, poly)
                assert report.is_bijection == bijection, poly
                assert report.first_collision == least_pair(expected), poly
                coprime = gcd(e0, q - 1) == 1
                if coprime:
                    assert distinct_sizes in ([], [q + 1]), poly
                else:
                    assert not bijection and not distinct_sizes, poly
                verdicts[coprime, bijection] += 1
    assert verdicts[True, True] > 10 and verdicts[True, False] > 10
    assert verdicts[False, False] > 10
    assert sum(verdicts.values()) == 5 * 2 * (4 + 12)


def test_split_walk_keeps_no_field_sized_state():
    """The permuting T6 tuple u = v = 1, r = 13, c = 2 at q = 8161, with its
    LH cached: the bijection test allocates O(q) bytes, not the q^2 labels of
    the walk (0.3 MB, against 57.7 MB when it marked all n of them)."""
    f = build_field(8161, 1)
    terms = t6_polys(f, (13,))[0].reduce_mod().terms
    assert oracle.permutes(f, terms)
    tracemalloc.start()
    try:
        assert oracle.permutes(f, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_ring_verdicts_match_the_label_stream():
    """On the degree-8 field, where evaluate() is too slow to take every
    case, the oracle's verdict of every walk case and of T1 trinomials against
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


# fields of degree 1 and 2 with D = q - 1 = 2, 4, 6, 8, 10, 12 and 24
ORACLE_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2)]


@st.composite
def sparse_polys(draw):
    """A random sparse polynomial on a small field: exponents e_0 + D*j for a
    planted divisor D of n, plus e_0 + 1 when D = 1, so that D is exactly 1.

    Only multiples of q - 1 split the walk, so half the draws plant
    D = q - 1, and split bijections come up often enough to test the
    residue test mod q + 1; the other half draw D among all divisors.
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


@given(poly=sparse_polys())
@settings(max_examples=200, deadline=None)
def test_oracle_matches_brute_force_on_random_polys(poly):
    f = poly.field
    expected = [int(evaluate(f, poly, x)) for x in f.elements()]
    report = is_permutation_of_field(f, poly)
    assert report.is_bijection == (len(set(expected)) == f.q2)
    assert report.first_collision == least_pair(expected)


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
    """T6 and T1 tuples with the cache kept, cleared before every call, with
    every LH kept but its verdict bytes emptied before every call, and
    bounded to one LH at a time (LH_CACHE_LABELS = 1), whose verdict bytes
    go with it.  Every verdict byte kept is its class's AGW test."""
    for f in (field_q13, field_q25):
        polys = t6_polys(f, range(1, 40)) + [
            build_f(params) for params in (
                FamilyParams(tag="T1", field=f, r=r, c=c, d=2, k=1)
                for r in range(1, 12) for c in valid_c_values(f, "T1")[:3])]
        cache = f.logs().lh_cache
        cache.clear()
        kept = [is_permutation_of_field(f, poly).is_bijection for poly in polys]
        check_verdict_bytes(f)
        forgotten = []
        for poly in polys:
            for _, verdicts in cache.values():
                verdicts[:] = bytes(f.q + 1)
            forgotten.append(is_permutation_of_field(f, poly).is_bijection)
        cleared = []
        for poly in polys:
            cache.clear()
            cleared.append(is_permutation_of_field(f, poly).is_bijection)
        check_verdict_bytes(f)
        monkeypatch.setattr(oracle, "LH_CACHE_LABELS", 1)
        bounded = [is_permutation_of_field(f, poly).is_bijection for poly in polys]
        assert len(cache) == 1
        check_verdict_bytes(f)
        monkeypatch.undo()
        assert kept == forgotten == cleared == bounded
        assert 0 < sum(kept) < len(kept), f


def check_verdict_bytes(f):
    """Every verdict byte in f's lh_cache is unknown or the AGW test of its
    class on its own LH, decided on the least e_0 of the class that passes
    the order exit; the even classes, which none passes, stay unknown.  At
    least one byte is decided."""
    q = f.q
    decided = 0
    for lh, verdicts in f.logs().lh_cache.values():
        assert len(verdicts) == q + 1 and not any(verdicts[::2])
        for m in range(1, q + 1, 2):
            if verdicts[m]:
                e0 = next(e for e in range(m, f.q2, q + 1) if gcd(e, q - 1) == 1)
                assert verdicts[m] == (2 if oracle.agw_failure(q, e0, lh) is None else 1), m
                decided += 1
    assert decided


# the H of the class tests: H = sum c*y^k as (k, c) pairs, c an int or a
# power of g (given as a string "g^i"), with a zero on mu_{q+1} in some
CLASS_HS = [[(0, 1)], [(0, 1), (1, "g^1")], [(0, 1), (2, "g^3")], [(0, 1), (1, 2), (2, 1)],
            [(1, 1), (3, "g^5"), (4, 2)], [(0, "g^2"), (5, 1)]]


def class_h(f, h):
    g = f.generator
    return [(k, g ** int(c[2:]) if isinstance(c, str) else f.from_int(c)) for k, c in h]


@pytest.mark.parametrize("p,h", [(5, 1), (13, 1), (3, 2)])
def test_class_verdicts_match_permutes_at_every_e0(p, h):
    """class_verdicts of each H against permutes of x^(e_0) H(x^(q-1))
    folded, for every e_0 in 1..n, with lh_cache emptied before every call:
    e_0 permutes iff gcd(e_0, q - 1) = 1 and its class e_0 mod (q + 1)
    does.  The classes are the odd residues mod q + 1.  Folding moves the
    least exponent of f where e_0 + k(q - 1) passes n, and with it H."""
    f = build_field(p, h)
    q, n = f.q, f.q2 - 1
    verdicts = Counter()
    for h_terms in map(partial(class_h, f), CLASS_HS):
        f.logs().lh_cache.clear()
        classes = oracle.class_verdicts(f, h_terms)
        assert sorted(classes) == list(range(1, q + 1, 2))
        for e0 in range(1, n + 1):
            f.logs().lh_cache.clear()
            terms = SparsePoly(f, [(e0 + k * (q - 1), c) for k, c in h_terms]).reduce_mod().terms
            expected = gcd(e0, q - 1) == 1 and classes[e0 % (q + 1)]
            assert oracle.permutes(f, terms) == expected, (h_terms, e0)
            verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]


# fields for random x^(e_0) H(x^(q-1)), of degree 1 and 2 (h = 1, 2)
SPLIT_FIELDS = [(5, 1), (13, 1), (3, 2), (5, 2)]


@st.composite
def split_polys(draw):
    """x^(e_0) H(x^(q-1)) on a small field, e_0 in 1..2n.  Half the draws
    take H from CLASS_HS, so that one H recurs with another e_0 across
    draws, where the verdict bytes kept in lh_cache answer it; the others
    draw one to three terms y^k, k up to q + 1, with coefficients 1, 2, g
    or g^(q+1)."""
    f = build_field(*draw(st.sampled_from(SPLIT_FIELDS)))
    q, n = f.q, f.q2 - 1
    if draw(st.booleans()):
        h_terms = class_h(f, draw(st.sampled_from(CLASS_HS)))
    else:
        ks = draw(st.lists(st.integers(0, q + 1), min_size=1, max_size=3, unique=True))
        coeffs = [f.one, f.from_int(2), f.generator, f.generator ** (q + 1)]
        h_terms = [(k, draw(st.sampled_from(coeffs))) for k in ks]
    e0 = draw(st.integers(1, 2 * n))
    return SparsePoly(f, [(e0 + k * (q - 1), c) for k, c in h_terms])


@given(poly=split_polys())
@settings(max_examples=100, deadline=None)
def test_split_verdicts_match_brute_force_with_the_class_memo(poly):
    """The oracle's verdict, with lh_cache and its verdict bytes kept
    across draws, against the images of evaluate() at every element."""
    f = poly.field
    images = {int(evaluate(f, poly, x)) for x in f.elements()}
    assert is_permutation_of_field(f, poly).is_bijection == (len(images) == f.q2)


def test_evaluation_does_not_depend_on_the_decoded_field_cache(field_q13, field_q25,
                                                              monkeypatch):
    """evaluate_on_field with the provider's exps() kept, cleared before
    every call, and bounded to nothing (EXPS_CACHE_LABELS = 0); the provider
    keeps one decoded field in the first case only."""
    for f in (field_q13, field_q25):
        g = f.generator
        polys = [x_power(f, 5), SparsePoly(f, [(0, g), (1, g), (f.q + 3, -g)])] + t6_polys(f, (1, 2))
        expected = [[int(evaluate(f, poly, x)) for x in f.elements()] for poly in polys]
        logs = f.logs()
        kept = [evaluate_on_field(f, poly) for poly in polys]
        assert logs._exps is logs.exps()
        cleared = []
        for poly in polys:
            logs._exps = None
            cleared.append(evaluate_on_field(f, poly))
        monkeypatch.setattr(ffcore, "EXPS_CACHE_LABELS", 0)
        logs._exps = None
        bounded = [evaluate_on_field(f, poly) for poly in polys]
        assert logs._exps is None
        monkeypatch.undo()
        assert kept == cleared == bounded == expected


def test_t6_at_the_largest_prime_field_matches_gcd_criterion():
    """q = 8161, a prime with q^2 just under 2^26: the sweep of T6 u = v = 1,
    c = 2 over r = 1..59 through the CLI, serially, and four tuples
    in-process.  r = 13 permutes; the split walk labels its base run with
    Zech logarithms computed per point from the O(q) lists."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["--jobs=1", "sweep", "family=T6", "q=8161", "u=1", "v=1", "r=1..59", "c=2"]
    assert cli.main(argv, out=out, err=err) == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert err.getvalue() == "tuples=59 disagreements=0\n"
    assert len(rows) == 59 and sum(row["oracle"] == "true" for row in rows) == 7
    f = build_field(8161, 1)
    for r in (13, 15, 17, 23):
        params = FamilyParams(tag="T6", field=f, r=r, c=f.from_int(2), u=1, v=1)
        assert is_permutation_of_field(f, build_f(params)).is_bijection == gcd_criterion(params), r
    assert gcd_criterion(FamilyParams(tag="T6", field=f, r=13, c=f.from_int(2), u=1, v=1))


@pytest.mark.parametrize("p,h", [(3, 6), (23, 2)])
def test_t1_on_large_extension_fields_matches_gcd_criterion(p, h):
    """Extension fields with q^2 = 3^12 and 23^4: T1 tuples against
    gcd_criterion, each in well under the seconds that encoding every run
    took."""
    f = build_field(p, h)
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
