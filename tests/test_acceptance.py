"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is decided by exhaustive enumeration (the oracle) against the
family gcd predicates, at the exact grids and tolerances stated for this
artifact: zero disagreements everywhere, < 60 s for the first sweep, < 10 ms
for a single q=29 oracle call.
"""

import random
import time
from math import gcd

from ppforge import (
    FamilyParams,
    SparsePoly,
    agw_check,
    build_f,
    build_field,
    corollary_negative,
    evaluate_on_field,
    is_permutation_of_field,
    is_permutation_of_mu,
    lemma_d4_identity,
    lemma_u_identity,
    lemma_v_identity,
    make_mu,
    make_partition,
    materialize_omega_monomial,
    omega_monomial_check,
    predicate,
    valid_c_values,
)
from ppforge.cli import compute_rows


def announce(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")


def admissible_divisors(q):
    return [d for d in range(1, q + 2) if (q + 1) % d == 0 and gcd(d, (q + 1) // d) == 1]


def sweep_family(field, tag, d_values, k_values, c_values, r_values, uv=None):
    """(tuples tested, disagreements) for predicate vs exhaustive oracle."""
    tested = disagreements = 0
    combos = uv if uv is not None else [(d, k) for d in d_values for k in k_values]
    for a, b in combos:
        for c in c_values:
            for r in r_values:
                if uv is None:
                    params = FamilyParams(tag=tag, field=field, r=r, c=c, d=a, k=b)
                else:
                    params = FamilyParams(tag=tag, field=field, r=r, c=c, u=a, v=b)
                tested += 1
                oracle = is_permutation_of_field(field, build_f(params))
                if predicate(params) != oracle.is_bijection:
                    disagreements += 1
    return tested, disagreements


def test_c01_t1_equivalence(field_q13):
    start = time.perf_counter()
    cs = valid_c_values(field_q13, "T1")
    assert len(cs) == 7
    tested, disagreements = sweep_family(
        field_q13, "T1", [2], [1, 3, 5, 7], cs, range(1, 168)
    )
    elapsed = time.perf_counter() - start
    ok = tested == 4676 and disagreements == 0 and elapsed < 60.0
    announce("criterion 01 (T1 iff, q=13)", ok,
             f"{disagreements} disagreements / {tested} tuples in {elapsed:.1f}s")
    assert tested == 4676
    assert disagreements == 0
    assert elapsed < 60.0


def test_c02_t2_equivalence(field_q13, field_q29):
    cs13 = valid_c_values(field_q13, "T2")
    tested_a, dis_a = sweep_family(field_q13, "T2", [7], [1, 3], cs13, range(1, 168))
    c29 = [field_q29.from_int(2)]
    tested_b, dis_b = sweep_family(field_q29, "T2", [5], [1], c29, range(1, 101))
    ok = dis_a == 0 and dis_b == 0
    announce("criterion 02 (T2 iff, q=13 and q=29)", ok,
             f"{dis_a}+{dis_b} disagreements / {tested_a}+{tested_b} tuples")
    assert dis_a == 0 and tested_a == 2 * 167 * 7
    assert dis_b == 0 and tested_b == 100


def test_c03_t3_t4_monomial_collapse():
    fields = [build_field(5, 1), build_field(7, 1), build_field(3, 2),
              build_field(11, 1), build_field(13, 1)]
    tested = failures = 0
    for field in fields:
        q, q2 = field.q, field.q2
        n = q2 - 1
        c_values = [field.from_int(1), field.from_int(2), field.generator]
        monomial_images = {}
        for c in c_values:
            for r in range(1, q2):
                monomial_images[(r, int(c))] = evaluate_on_field(
                    field, SparsePoly.monomial(field, c, r)
                )
        divisors = [d for d in range(1, q + 2) if (q + 1) % d == 0]
        for tag in ("T3", "T4"):
            for d in divisors:
                for k in (0, 1):
                    for c in c_values:
                        for r in range(1, q2):
                            tested += 1
                            params = FamilyParams(tag=tag, field=field, r=r, c=c, d=d, k=k)
                            f = build_f(params)
                            reduced_ok = (
                                f.reduce_mod().canonical_terms() == ((r, int(c)),)
                            )
                            images = evaluate_on_field(field, f)
                            pointwise_ok = images == monomial_images[(r, int(c))]
                            bijection = len(set(images)) == q2
                            iff_ok = predicate(params) == (gcd(r, n) == 1) == bijection
                            if not (reduced_ok and pointwise_ok and iff_ok):
                                failures += 1
    announce("criterion 03 (T3/T4 collapse to c*x^r)", failures == 0,
             f"{failures} failures / {tested} tuples")
    assert failures == 0


def test_c04_t5_equivalence(field_q11, field_q19):
    total = disagreements = 0
    for field in (field_q11, field_q19):
        cs = valid_c_values(field, "T5")
        assert len(cs) == (field.q + 1) // 4
        tested, dis = sweep_family(field, "T5", [4], [0, 2, 4], cs, range(1, field.q2))
        total += tested
        disagreements += dis
        assert lemma_d4_identity(field)
    announce("criterion 04 (T5 iff + 4-class identity, q=11,19)",
             disagreements == 0, f"{disagreements} disagreements / {total} tuples")
    assert disagreements == 0


def test_c05_t6_equivalence_and_negative_family(field_q5, field_q7, field_q9,
                                                field_q11, field_q13):
    total = disagreements = 0
    uv = [(u, v) for u in (1, 3, 5) for v in (1, 3, 5)]
    for field in (field_q5, field_q9, field_q13):
        cs = valid_c_values(field, "T6")
        assert len(cs) == (field.q + 1) // 2
        tested, dis = sweep_family(field, "T6", None, None, cs,
                                   range(1, field.q2), uv=uv)
        total += tested
        disagreements += dis
    negatives_ok = True
    for field in (field_q7, field_q11):
        negatives_ok &= corollary_negative(
            field, 1, 1, field.from_int(2), range(1, field.q2)
        )
    ok = disagreements == 0 and negatives_ok
    announce("criterion 05 (T6 iff, q=5,9,13 + no permutation for q=7,11)",
             ok, f"{disagreements} disagreements / {total} tuples; "
                 f"negative family {'confirmed' if negatives_ok else 'BROKEN'}")
    assert disagreements == 0
    assert negatives_ok


def test_c06_lemma_identity_audit():
    fields = [build_field(5, 1), build_field(3, 2), build_field(11, 1),
              build_field(13, 1), build_field(17, 1), build_field(19, 1),
              build_field(5, 2), build_field(29, 1)]
    tested = failures = 0
    for field in fields:
        for d in admissible_divisors(field.q):
            for k in (0, 1):
                tested += 2
                if not lemma_v_identity(field, d, k):
                    failures += 1
                if not lemma_u_identity(field, d, k):
                    failures += 1
    announce("criterion 06 (exponent identities on mu_{q+1})", failures == 0,
             f"{failures} failures / {tested} (q, d, k, lemma) checks")
    assert failures == 0


def test_c07_omega_monomial_iff(field_q5, field_q13):
    tested = disagreements = 0
    for field in (field_q5, field_q13):
        q = field.q
        mu = make_mu(field)
        samples = [mu.gamma ** t for t in (0, 1, q)]
        for d in admissible_divisors(q):
            part = make_partition(mu, d)
            v = part.subgroup_order
            for k in range(0, 2 * d + 1):
                for n in range(0, 2 * v + 1):
                    for A in samples:
                        tested += 1
                        verdict = omega_monomial_check(part, A, k, n)
                        g = materialize_omega_monomial(part, A, k, n)
                        if verdict != is_permutation_of_mu(mu, g).is_bijection:
                            disagreements += 1
    announce("criterion 07 (coset-monomial gcd iff)", disagreements == 0,
             f"{disagreements} disagreements / {tested} maps")
    assert disagreements == 0


def test_c08_subgroup_criterion_random_crosscheck():
    rng = random.Random(0)
    tested = disagreements = 0
    for p, h_deg in ((5, 1), (3, 2)):
        field = build_field(p, h_deg)
        q2 = field.q2
        for _ in range(200):
            r = rng.randrange(1, q2)
            h = SparsePoly(
                field,
                [(rng.randrange(0, 2 * q2), field.from_int(rng.randrange(1, q2)))
                 for _ in range(3)],
            )
            tested += 1
            f = h.compose_power(r, field.q - 1)
            if bool(agw_check(field, r, h)) != is_permutation_of_field(field, f).is_bijection:
                disagreements += 1
    announce("criterion 08 (subgroup criterion vs field oracle)",
             disagreements == 0, f"{disagreements} disagreements / {tested} random (r, h)")
    assert disagreements == 0


def test_c09_oracle_monomial_selftest():
    tested = disagreements = 0
    for p, h_deg in ((5, 1), (7, 1), (3, 2)):
        field = build_field(p, h_deg)
        n = field.q2 - 1
        for e in range(1, field.q2):
            tested += 1
            verdict = is_permutation_of_field(
                field, SparsePoly.monomial(field, field.one, e)
            ).is_bijection
            if verdict != (gcd(e, n) == 1):
                disagreements += 1
    announce("criterion 09 (monomial criterion self-test)", disagreements == 0,
             f"{disagreements} disagreements / {tested} exponents")
    assert disagreements == 0


def test_c10_binomial_collapse(field_q13, field_q29):
    """Every T1/T2 instance of criteria 1-2 must reduce to exactly two
    distinct exponents (a true binomial).

    Known to fail: with (q+1) | v1+k (T1, q=13, d=2, k=7) or (q+1) | u1+k
    (T2, q=13, d=7, k=1) every term of f falls into the single residue r, so
    the reduced form is the monomial (c+2)x^r.  The weaker collapse bound
    (at most two terms) is asserted separately below and does hold.
    """
    instances = []
    for k in (1, 3, 5, 7):
        for c in valid_c_values(field_q13, "T1"):
            instances += [FamilyParams(tag="T1", field=field_q13, r=r, c=c, d=2, k=k)
                          for r in range(1, 168)]
    for k in (1, 3):
        for c in valid_c_values(field_q13, "T2"):
            instances += [FamilyParams(tag="T2", field=field_q13, r=r, c=c, d=7, k=k)
                          for r in range(1, 168)]
    instances += [FamilyParams(tag="T2", field=field_q29, r=r,
                               c=field_q29.from_int(2), d=5, k=1)
                  for r in range(1, 101)]
    failures = 0
    at_most_two = True
    for params in instances:
        reduced = build_f(params).reduce_mod()
        if len(reduced.terms) != 2:
            failures += 1
        if len(reduced.terms) > 2:
            at_most_two = False
    assert at_most_two, "the merge of the two variable exponents must always happen"
    announce("criterion 10 (reduced f is a binomial)", failures == 0,
             f"{failures} failures / {len(instances)} instances "
             f"(degenerate tuples collapse to a monomial)")
    assert failures == 0, (
        f"{failures} instances reduce to fewer than two terms: for k with "
        f"(q+1) | v1+k (T1 d=2 k=7) or (q+1) | u1+k (T2 d=7 k=1) the variable "
        f"terms merge into c*x^r, leaving the monomial (c+2)x^r"
    )


def test_c11_performance_envelope(field_q29):
    params = FamilyParams(tag="T2", field=field_q29, r=11,
                          c=field_q29.from_int(2), d=5, k=1)
    f = build_f(params)
    is_permutation_of_field(field_q29, f)  # warm the field's logs
    best = min(
        _timed(lambda: is_permutation_of_field(field_q29, f)) for _ in range(5)
    )
    single_ok = best < 0.010
    announce("criterion 11a (single q=29 oracle call < 10 ms)", single_ok,
             f"best of 5: {best * 1000:.2f} ms for 841 evaluations")
    assert single_ok

    # informational: sweep throughput with 1 vs 4 workers (not gating)
    field = build_field(13, 1)
    cs = [int(c) for c in valid_c_values(field, "T1")]
    tuples = [("T1", 2, 1, 0, 0, r, c) for c in cs for r in range(1, 168)]
    t0 = time.perf_counter()
    rows_serial = compute_rows(field, tuples, 1, 0, 1 << 26)
    serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    rows_parallel = compute_rows(field, tuples, 4, 0, 1 << 26)
    parallel = time.perf_counter() - t0
    strip = lambda rows: [row._replace(elapsed_us=0) for row in rows]
    assert strip(rows_serial) == strip(rows_parallel)
    announce("criterion 11b (parallel sweep, informational)", True,
             f"1 worker: {serial:.2f}s, 4 workers: {parallel:.2f}s "
             f"(speedup {serial / parallel:.2f}x on this machine)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
