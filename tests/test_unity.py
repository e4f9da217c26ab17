import contextlib
import io
import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppforge import (
    MonomialPiece,
    SparsePoly,
    agw_check,
    build_field,
    coset_index,
    evaluate,
    is_permutation_of_field,
    is_permutation_of_mu,
    make_mu,
    make_partition,
    materialize_omega_monomial,
    omega_monomial_check,
    piecewise_check,
)
from ppforge.cli import main
from ppforge.errors import NotADivisor, NotInMu, PartitionNotDisjoint
from ppforge.unity import CheckResult, MuContext, induced_pieces
from reference import coset_decompose, poly_from_ints


def test_make_mu_builds_one_context_per_field(field_q13, monkeypatch):
    assert make_mu(field_q13) is make_mu(field_q13)
    make_mu.cache_clear()
    built = []
    init = MuContext.__init__

    def counting_init(self, field, gamma):
        built.append(field)
        init(self, field, gamma)

    monkeypatch.setattr(MuContext, "__init__", counting_init)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["identities", "q=3^4"]) == 0
    assert built == [build_field(3, 4)]


def test_mu_basics_q5(field_q5):
    mu = make_mu(field_q5)
    elems = mu.elements()
    assert mu.order == 6 and len(elems) == 6
    assert len({int(x) for x in elems}) == 6
    assert all(x ** 6 == field_q5.one for x in elems)
    # intersection with the prime subfield: exactly {1, -1}
    rational = sorted(int(x) for x in elems if int(x) < 5)
    assert rational == [1, 4]


def test_gamma_has_exact_order_q_plus_1(field_q13):
    mu = make_mu(field_q13)
    one = field_q13.one
    assert mu.gamma == field_q13.generator ** 12
    x = mu.gamma
    for k in range(1, 14):
        assert x != one
        x = x * mu.gamma
    assert x == one


@pytest.mark.parametrize("p,h", [(5, 1), (3, 2), (3, 4)])
def test_walk_and_log_against_plain_powers(p, h):
    f = build_field(p, h)
    q = f.q
    mu = make_mu(f)
    for e in (0, 1, -1, q, q + 2, -(q + 5)):
        walk = mu.walk(e)
        assert len(walk) == q + 1
        assert all(x == mu.gamma ** (e * i) for i, x in enumerate(walk))
    assert mu.elements() == mu.walk(1)
    assert [mu.log(x) for x in mu.elements()] == list(range(q + 1))
    with pytest.raises(NotInMu):
        mu.log(f.generator)
    assert f.generator not in mu and mu.gamma in mu


def test_mu_solves_x_q_plus_1_equals_1(field_q5):
    mu = make_mu(field_q5)
    solutions = {int(x) for x in field_q5.elements() if x ** 6 == field_q5.one}
    assert solutions == {int(x) for x in mu.elements()}


def test_partition_q5_d3(field_q5):
    mu = make_mu(field_q5)
    part = make_partition(mu, 3)
    assert part.subgroup_order == 2
    assert part.disjoint
    assert part.s == 2
    # omega has exact order 3
    assert part.omega ** 3 == field_q5.one
    assert part.omega != field_q5.one and part.omega ** 2 != field_q5.one
    # the three cosets have size two each and tile mu_6
    buckets = {0: set(), 1: set(), 2: set()}
    for x in mu.elements():
        buckets[coset_index(part, x)].add(int(x))
    assert all(len(b) == 2 for b in buckets.values())
    assert set.union(*buckets.values()) == {int(x) for x in mu.elements()}


def test_partition_flags_and_errors(field_q7, field_q13, field_q5):
    mu7 = make_mu(field_q7)
    part = make_partition(mu7, 4)
    assert not part.disjoint  # gcd(4, 2) = 2
    with pytest.raises(PartitionNotDisjoint):
        coset_index(part, field_q7.one)
    mu13 = make_mu(field_q13)
    assert make_partition(mu13, 2).s == 1  # 7 mod 2
    with pytest.raises(NotADivisor):
        make_partition(make_mu(field_q5), 4)


def test_coset_index_basics(field_q5, field_q13):
    mu = make_mu(field_q5)
    part = make_partition(mu, 3)
    assert coset_index(part, field_q5.one) == 0
    # exhaustive: omega^i * y recovers i for every y in the small subgroup
    sub = [x for x in mu.elements() if x ** 2 == field_q5.one]
    for i in range(3):
        for y in sub:
            assert coset_index(part, part.omega_pow(i) * y) == i
    with pytest.raises(NotInMu):
        coset_index(part, field_q5.generator)


def test_coset_index_minus_gamma_squared(field_q13):
    f = field_q13
    mu = make_mu(f)
    part = make_partition(mu, 2)
    x = -(mu.gamma ** 2)
    # independent membership scan of the index-2 subgroup mu_7
    mu7 = {int(mu.gamma ** (2 * j)) for j in range(7)}
    expected = 0 if int(x) in mu7 else 1
    assert expected == 1
    assert coset_index(part, x) == expected


def test_coset_decompose(field_q13):
    mu = make_mu(field_q13)
    part = make_partition(mu, 7)
    for x in mu.elements():
        i, y = coset_decompose(part, x)
        assert y ** part.subgroup_order == field_q13.one
        assert part.omega_pow(i) * y == x


def test_agw_constant_h(field_q5):
    f = field_q5
    h = SparsePoly(f, [(0, f.generator)])
    for r in range(1, 25):
        if gcd(r, 24) == 1:
            assert agw_check(f, r, h)


def test_agw_gcd_failure(field_q5):
    f = field_q5
    h = SparsePoly(f, [(0, f.one)])
    result = agw_check(f, 2, h)
    assert not result
    assert "gcd" in result.reason


def test_agw_vanishing_h(field_q5):
    f = field_q5
    mu = make_mu(f)
    h = SparsePoly(f, [(1, f.one), (0, -mu.gamma)])  # root gamma lies on mu
    result = agw_check(f, 1, h)
    assert not result
    assert "vanishes" in result.reason


def test_agw_known_permutation_instance(field_q13):
    f = field_q13
    h = poly_from_ints(f, [(0, 2), (8, 1), (92, 1)])
    assert agw_check(f, 5, h)


def test_agw_agrees_with_field_oracle():
    # both directions of the subgroup criterion, over seeded random (r, h)
    rng = random.Random(7)
    for p, h_deg in ((5, 1), (3, 2)):
        f = build_field(p, h_deg)
        for _ in range(25):
            r = rng.randrange(1, f.q2)
            h = SparsePoly(
                f,
                [
                    (rng.randrange(0, 2 * f.q2), f.from_int(rng.randrange(1, f.q2)))
                    for _ in range(3)
                ],
            )
            direct = is_permutation_of_field(f, h.compose_power(r, f.q - 1))
            assert bool(agw_check(f, r, h)) == direct.is_bijection


def _agw_reason(field, r, h):
    """agw_check's reason code from Element arithmetic alone: gcd(r, q - 1),
    then a zero of h on mu_{q+1}, then the q + 1 images x^r h(x)^(q-1)."""
    q, roots = field.q, make_mu(field).elements()
    if gcd(r, q - 1) != 1:
        return "gcd(r, q-1) != 1"
    values = [evaluate(field, h, x) for x in roots]
    if any(value.is_zero() for value in values):
        return "h vanishes on mu_{q+1}"
    if len({int(x ** r * value ** (q - 1)) for x, value in zip(roots, values)}) < q + 1:
        return "x^r h(x)^(q-1) is not a bijection of mu_{q+1}"
    return None


@settings(max_examples=300, deadline=None)
@given(pq=st.sampled_from(((5, 1), (3, 2), (13, 1))), seed=st.sampled_from((0, 1)),
       r=st.integers(1, 400),
       terms=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 1 << 10)), min_size=1, max_size=3),
       root=st.none() | st.integers(0, 13))
@example(pq=(5, 1), seed=0, r=2, terms=[(0, 1)], root=None)  # gcd
@example(pq=(3, 2), seed=1, r=1, terms=[(0, 1), (1, 1)], root=3)  # h vanishes
@example(pq=(13, 1), seed=0, r=1, terms=[(0, 1), (2, 2)], root=None)  # not a bijection
@example(pq=(13, 1), seed=1, r=5, terms=[(0, 7)], root=None)  # permutes
def test_agw_check_against_element_arithmetic(pq, seed, r, terms, root):
    """agw_check's verdict and reason code on F_25, F_81 and F_169, built at
    PPFORGE_SEED 0 and 1, for random (r, h), h of at most three terms, read
    against _agw_reason, which uses no LH.  With root set, the first
    coefficient is chosen so that h vanishes at that root of unity, when
    the other terms allow it.  The examples reach each reason code."""
    field = build_field(*pq, seed=seed)
    coeffs = [(k, field.from_int(1 + c % (field.q2 - 1))) for k, c in terms]
    if root is not None and len(coeffs) > 1:
        x = make_mu(field).elements()[root % (field.q + 1)]
        (k, _), rest = coeffs[0], coeffs[1:]
        value = evaluate(field, SparsePoly(field, rest), x)
        if not value.is_zero():
            coeffs[0] = (k, -value * x ** -k)
    h = SparsePoly(field, coeffs)
    reason = _agw_reason(field, r, h)
    assert agw_check(field, r, h) == CheckResult(reason is None, reason), (pq, seed, r, h)


def test_piecewise_identity_d1(field_q5):
    mu = make_mu(field_q5)
    part = make_partition(mu, 1)
    assert piecewise_check(part, [MonomialPiece(field_q5.one, 1)])


def test_piecewise_identity_d3(field_q5):
    mu = make_mu(field_q5)
    part = make_partition(mu, 3)
    pieces = [MonomialPiece(field_q5.one, 1)] * 3
    assert piecewise_check(part, pieces)


def test_piecewise_rotating_constants(field_q5):
    # pieces (1, w, w^2) with exponent 1: coset i lands in coset (2i mod 3);
    # an independent image enumeration confirms the bijection
    f = field_q5
    mu = make_mu(f)
    part = make_partition(mu, 3)
    pieces = [MonomialPiece(part.omega_pow(i), 1) for i in range(3)]
    images = set()
    for x in mu.elements():
        i, y = coset_decompose(part, x)
        images.add(int(pieces[i].A * x))
    assert (len(images) == 6) == piecewise_check(part, pieces)
    assert piecewise_check(part, pieces)


def test_piecewise_gcd_condition(field_q5):
    mu = make_mu(field_q5)
    part = make_partition(mu, 3)
    # subgroup order 2, exponent 2 shares a factor: never a permutation
    pieces = [MonomialPiece(field_q5.one, 2)] * 3
    assert not piecewise_check(part, pieces)


def test_piecewise_errors(field_q5, field_q7):
    mu = make_mu(field_q5)
    part = make_partition(mu, 3)
    with pytest.raises(ValueError):
        piecewise_check(part, [MonomialPiece(field_q5.one, 1)])
    with pytest.raises(NotInMu):
        piecewise_check(part, [MonomialPiece(field_q5.generator, 1)] * 3)
    bad = make_partition(make_mu(field_q7), 4)
    with pytest.raises(PartitionNotDisjoint):
        piecewise_check(bad, [MonomialPiece(field_q7.one, 1)] * 4)


def disjoint_partitions(mu):
    """The partition of mu_{q+1} by every d with disjoint cosets."""
    q = mu.field.q
    return [make_partition(mu, d) for d in range(1, q + 2)
            if (q + 1) % d == 0 and gcd(d, (q + 1) // d) == 1]


def coset_by_membership(part, x):
    """The j with x * omega^-j in the index-d subgroup, found by testing
    membership in every coset: no coset index arithmetic."""
    one = x.field.one
    j, = [j for j in range(part.d)
          if (x * part.omega_pow(-j)) ** part.subgroup_order == one]
    return j


@pytest.mark.parametrize("p,h", [(5, 1), (13, 1), (3, 2), (29, 1)])
def test_piecewise_index_map_matches_element_images(p, h):
    # the element form: g(x) = A_j * x^(n_j) with j found by membership,
    # enumerated at every root.  Half the draws permute by construction:
    # A_j = omega^(sigma(j)) * omega^(-j n_j) * y_j sends the j-th coset onto
    # the sigma(j)-th, and the rest draw A_j at random.
    f = build_field(p, h)
    q = f.q
    mu = make_mu(f)
    rng = random.Random(q)
    verdicts = Counter()
    for part in disjoint_partitions(mu):
        d, v = part.d, part.subgroup_order
        cosets = [coset_by_membership(part, x) for x in mu.elements()]
        units = [e for e in range(-2 * v, 2 * v + 1) if gcd(e, v) == 1]
        for draw in range(8):
            exponents = [rng.choice(units) for _ in range(d)]
            if draw % 2:
                sigma = rng.sample(range(d), d)
                constants = [part.omega_pow(sigma[j] - j * exponents[j])
                             * mu.gamma ** (d * rng.randrange(v)) for j in range(d)]
            else:
                constants = [mu.gamma ** rng.randrange(q + 1) for _ in range(d)]
            pieces = [MonomialPiece(A, e) for A, e in zip(constants, exponents)]
            images = {int(pieces[j].A * x ** pieces[j].exponent)
                      for j, x in zip(cosets, mu.elements())}
            bijection = len(images) == q + 1
            assert piecewise_check(part, pieces) == bijection, (d, pieces)
            verdicts[bijection, d > 1] += 1
        # an exponent sharing a factor with (q+1)/d never permutes
        if v > 1:
            assert not piecewise_check(part, [MonomialPiece(f.one, v)] * d)
    assert verdicts[True, True] and verdicts[False, True]


@pytest.mark.parametrize("p,h", [(5, 1), (13, 1), (3, 2), (29, 1)])
def test_materialized_omega_monomial_matches_coset_decompose(p, h):
    f = build_field(p, h)
    q = f.q
    mu = make_mu(f)
    rng = random.Random(q)
    for part in disjoint_partitions(mu):
        A = mu.gamma ** rng.randrange(q + 1)
        for k, n in ((0, 1), (1, 0), (1, 2), (part.d + 1, -1), (-3, q + 4), (2, 5)):
            g = materialize_omega_monomial(part, A, k, n)
            for x in mu.elements():
                i, y = coset_decompose(part, x)
                assert g(x) == A * part.omega_pow(i * k) * y ** n, (part.d, k, n, x)


def test_omega_monomial_check_examples(field_q5, field_q13):
    mu5 = make_mu(field_q5)
    part5 = make_partition(mu5, 3)
    one5 = field_q5.one
    assert omega_monomial_check(part5, one5, 1, 1)
    assert not omega_monomial_check(part5, one5, 3, 1)  # gcd(3, 3) = 3
    mu13 = make_mu(field_q13)
    part13 = make_partition(mu13, 2)
    one13 = field_q13.one
    assert omega_monomial_check(part13, one13, 1, 4)
    g = materialize_omega_monomial(part13, one13, 1, 4)
    assert is_permutation_of_mu(mu13, g).is_bijection


def test_omega_monomial_not_in_mu(field_q5):
    part = make_partition(make_mu(field_q5), 3)
    with pytest.raises(NotInMu):
        omega_monomial_check(part, field_q5.generator, 1, 1)


@pytest.mark.parametrize("p,h", [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2), (29, 1)])
def test_omega_monomial_iff_full_window(p, h):
    # the central equivalence: the gcd criterion must agree with brute-force
    # bijection testing over one full period of (k, n) in every admissible coset
    # decomposition
    f = build_field(p, h)
    q = f.q
    mu = make_mu(f)
    samples = [mu.gamma ** t for t in (0, 1, q)]
    for d in range(1, q + 2):
        if (q + 1) % d or gcd(d, (q + 1) // d) != 1:
            continue
        part = make_partition(mu, d)
        for k in range(0, 2 * d + 1):
            for n in range(0, 2 * part.subgroup_order + 1):
                for A in samples:
                    verdict = omega_monomial_check(part, A, k, n)
                    g = materialize_omega_monomial(part, A, k, n)
                    assert verdict == is_permutation_of_mu(mu, g).is_bijection


def test_omega_monomial_implies_piecewise(field_q5, field_q13):
    # whenever the gcd criterion passes, the induced coset pieces pass too
    for f in (field_q5, field_q13):
        q = f.q
        mu = make_mu(f)
        A = mu.gamma
        for d in range(1, q + 2):
            if (q + 1) % d or gcd(d, (q + 1) // d) != 1:
                continue
            part = make_partition(mu, d)
            for k in range(0, 2 * d + 1):
                for n in range(0, 2 * part.subgroup_order + 1):
                    if omega_monomial_check(part, A, k, n):
                        assert piecewise_check(part, induced_pieces(part, A, k, n))


def test_induced_pieces_equal_materialized_map(field_q13):
    f = field_q13
    mu = make_mu(f)
    part = make_partition(mu, 7)
    A = mu.gamma ** 3
    for k in range(3):
        for n in range(3):
            g = materialize_omega_monomial(part, A, k, n)
            pieces = induced_pieces(part, A, k, n)
            for x in mu.elements():
                piece = pieces[coset_index(part, x)]
                assert piece.A * x ** piece.exponent == g(x)


@pytest.mark.parametrize("p,h", [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2), (29, 1)])
def test_partition_completeness(p, h):
    f = build_field(p, h)
    q = f.q
    mu = make_mu(f)
    for d in range(1, q + 2):
        if (q + 1) % d or gcd(d, (q + 1) // d) != 1:
            continue
        part = make_partition(mu, d)
        counts = [0] * d
        for x in mu.elements():
            i = coset_index(part, x)
            counts[i] += 1
            assert (x * part.omega_pow(-i % d)) ** part.subgroup_order == f.one
        assert counts == [part.subgroup_order] * d
