"""Exact arithmetic in F_{q^2} for q = p^h an odd prime power.

The field is realized as F_p[t] / (m(t)) with m monic irreducible of degree
2h, i.e. a single extension of the prime field rather than a tower over F_q.
An element is a vector of 2h residues mod p in little-endian order (index i
holds the coefficient of t^i).  The canonical integer encoding of an element
is sum(coeffs[i] * p^i), an integer in [0, q^2); it is used for element
serialization everywhere.

There is one multiplication modulo m, FieldSpec._mul_coeffs, and one
square-and-multiply on it, FieldSpec._pow_coeffs: element powers, the
generator test and Rabin's irreducibility test all go through them.

Fields are built by seeded random search (irreducible modulus, then a
generator of the full multiplicative group), so construction is deterministic
for a fixed seed.  FieldSpec and Element are immutable after construction and
safe to share between threads; all operations are pure.

Discrete logs base the generator come from one provider on every field,
FieldSpec.logs(): two-level logs and Zech logarithms from lists of O(q)
ints (TwoLevelLogs), with zero labelled n = q^2 - 1.  It labels the values
of a sparse polynomial along a run of powers of g, the oracle's one kind of
walk, adding the terms by Zech logarithms computed from the same lists.
"""

from array import array
from functools import lru_cache
from itertools import repeat
from operator import mul
import random

from .errors import DivisionByZero, FieldMismatch, NotPrime, SizeExceeded

DEFAULT_MAX_FIELD_SIZE = 1 << 26
DEFAULT_SEED = 0

# The C int type of TwoLevelLogs.exps(), 4 bytes an entry.  It holds values
# below 2^31 only: enough for exps()' encodings, below q^2 (2^26 by default),
# but not for the labels of a field past q = 46,341, so oracle.h_logs keeps LH
# as 8-byte ints.
TABLE_TYPE = "i"

# Most labels TwoLevelLogs.log keeps, by coefficient vector, on h > 1
LOG_MEMO_SIZE = 1 << 10

# Largest q^2 for which TwoLevelLogs keeps the decoded field, exps(), once
# built: an array of q^2 C ints, 4 MB at the bound.  Above it every exps()
# call decodes the field afresh.
EXPS_CACHE_LABELS = 1 << 20


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n):
    """Trial-division factorization, returned as a sorted tuple of (prime, exponent)."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return tuple(sorted(factors.items()))


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (little-endian coefficient lists)
# ---------------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m."""
    a = [c % p for c in a]
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _poly_trim(a)


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic_b = [c * inv_lead % p for c in b]
        a, b = b, _poly_mod(a, monic_b, p)
    return a


def _poly_is_irreducible(m, p):
    """Rabin's test (SIAM J. Comput. 9, 1980) for a monic m over F_p of even
    degree n, as every caller's degree is 2h: m is irreducible iff
    t^(p^n) = t mod m and gcd(m, t^(p^(n/r)) - t) = 1 for each prime r
    dividing n.  The powers t^(p^k) are taken by k successive p-th powers in
    the ring F_p[t]/(m) of a probe FieldSpec, which exists whether or not m
    is irreducible."""
    n = len(m) - 1
    ring = FieldSpec(p, n // 2, m, (0,) * n)
    t = (0, 1) + (0,) * (n - 2)
    powers = [t]  # t^(p^k) mod m at index k
    for _ in range(n):
        powers.append(ring._pow_coeffs(powers[-1], p))
    return powers[n] == t and all(
        len(_poly_gcd(m, [(a - b) % p for a, b in zip(powers[n // r], t)], p)) == 1
        for r, _ in factorize(n))


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class Element:
    """One residue of F_{q^2} in the polynomial basis over F_p.

    Immutable; equality and hashing go through the coefficient vector.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _same_field(self, other):
        if other.field is not self.field and not self.field.same_field(other.field):
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._same_field(other)
        p = self.field.p
        return Element(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._same_field(other)
        p = self.field.p
        return Element(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return Element(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._same_field(other)
        return Element(self.field, self.field._mul_coeffs(self.coeffs, other.coeffs))

    def __pow__(self, e):
        """Square-and-multiply power; e is reduced mod q^2 - 1, x^-1 == x^(q^2-2).

        Conventions: x**0 == 1 for every x including 0, and 0**e == 0 for
        e > 0.  A negative power of 0 raises DivisionByZero.
        """
        field = self.field
        if e == 0:
            return field.one
        if self.is_zero():
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return field.zero
        return Element(field, field._pow_coeffs(self.coeffs, e % (field.q2 - 1)))

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return self ** (self.field.q2 - 2)

    def __truediv__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self * other.inverse()

    def is_zero(self):
        return not any(self.coeffs)

    def __int__(self):
        """Canonical integer encoding sum(coeffs[i] * p^i)."""
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.field.p + c
        return n

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.coeffs == other.coeffs and self.field.same_field(other.field)

    def __hash__(self):
        return hash((self.coeffs, self.field.p, self.field.modulus))

    def __repr__(self):
        return f"F{self.field.q2}({int(self)})"


class FieldSpec:
    """F_{q^2} as F_p[t]/(m), one extension of degree 2h over the prime
    field: modulus m, generator, cached orders.

    Immutable after construction.  Use build_field() or field_from_text()
    rather than the constructor; both validate their inputs.  Built on any
    monic m of degree 2h, it is the ring F_p[t]/(m), a field iff m is
    irreducible: _poly_is_irreducible and verify_generator work in it.
    """

    def __init__(self, p, h, modulus, generator_coeffs):
        self.p = p
        self.h = h
        self.q = p ** h
        self.q2 = self.q ** 2
        self.modulus = tuple(modulus)
        self.degree = 2 * h
        self.factorization = factorize(self.q2 - 1)
        # column i of the map v -> t^(2h)*v is t^(2h+i) mod m, the reduction
        # _mul_coeffs applies to a product's coefficient at t^(2h+i)
        self._reduce_rows = tuple(zip(*self._mul_rows([-c % p for c in self.modulus[:-1]])))
        self.zero = Element(self, (0,) * self.degree)
        self.one = self.from_int(1)
        self.generator = Element(self, tuple(generator_coeffs))
        self._logs = None

    def _mul_coeffs(self, a, b):
        p, n = self.p, self.degree
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        rows = self._reduce_rows
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c:
                row = rows[i - n]
                for j in range(n):
                    prod[j] += c * row[j]
        return tuple(c % p for c in prod[:n])

    def _pow_coeffs(self, a, e):
        """a^e for a coefficient vector a and an int e >= 0 by square-and-
        multiply on _mul_coeffs, e taken as given, not reduced mod q^2 - 1:
        it holds in any ring F_p[t]/(m)."""
        result = self.one.coeffs
        while e:
            if e & 1:
                result = self._mul_coeffs(result, a)
            a = self._mul_coeffs(a, a)
            e >>= 1
        return result

    def _mul_rows(self, a):
        # rows of the matrix of v -> a*v; column j is a*t^j, and t*c is c
        # shifted up one place minus its top coefficient times the modulus
        p = self.p
        cols, col = [], list(a)
        for _ in range(self.degree):
            cols.append(col)
            col = [(x - col[-1] * m) % p for x, m in zip([0] + col[:-1], self.modulus)]
        return tuple(zip(*cols))

    def _times(self, rows, block):
        """The matrix with the given rows over F_p times a block of
        coordinate columns, an F_p-linear map applied a whole column at a
        time; with the rows _mul_rows(a), the map v -> a*v."""
        p = self.p
        out = []
        for row in rows:
            acc = [row[0] * x for x in block[0]]
            for m, col in zip(row[1:], block[1:]):
                acc = [s + m * x for s, x in zip(acc, col)]
            out.append([s % p for s in acc])
        return out

    def power_columns(self, a, count):
        """The coordinate columns of a^0, ..., a^(count-1) (count >= 1, a a
        nonzero Element): column j holds their t^j coefficients.  Built by
        doubling: the columns so far, a^0..a^(len-1), are extended by
        themselves times a^len, and that multiplier is squared; the last
        step is cut to count."""
        m, cols = a.coeffs, [[x] for x in self.one.coeffs]
        while len(cols[0]) < count:
            size = count - len(cols[0])
            for col, more in zip(cols, self._times(self._mul_rows(m), [col[:size] for col in cols])):
                col.extend(more)
            m = self._mul_coeffs(m, m)
        return cols

    def encode(self, cols):
        """Canonical encodings of the values in a block of coordinate columns,
        Horner's rule with the top coefficient first."""
        canon = cols[-1]
        for col in cols[-2::-1]:
            canon = [c * self.p + x for c, x in zip(canon, col)]
        return canon

    def same_field(self, other):
        return self is other or (
            self.p == other.p and self.h == other.h and self.modulus == other.modulus
        )

    def from_int(self, n):
        """Element with canonical encoding n (0 <= n < q^2)."""
        if not 0 <= n < self.q2:
            raise ValueError(f"canonical encoding {n} out of range [0, {self.q2})")
        coeffs = []
        for _ in range(self.degree):
            n, c = divmod(n, self.p)
            coeffs.append(c)
        return Element(self, tuple(coeffs))

    def element(self, coeffs):
        """Element from an explicit coefficient vector (little-endian, length 2h)."""
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(coeffs)}")
        return Element(self, coeffs)

    def elements(self):
        """All q^2 elements in canonical order."""
        for n in range(self.q2):
            yield self.from_int(n)

    # -- discrete logs -------------------------------------------------------

    def logs(self):
        """The field's discrete logs base the generator g, TwoLevelLogs: it
        gives log(c), exps() (the code of g^label at every label) and
        labels(step, terms, count), with n = q^2 - 1 the label of zero.
        Built once, lazily, and published by one assignment, so a concurrent
        reader sees a whole provider or none."""
        if self._logs is None:
            self._logs = TwoLevelLogs(self)
        return self._logs

    # perfbench/child.py builds logs() in its set-up through these two; they
    # go once the harness times field.logs() itself
    def tables_supported(self):
        """True: every field has the tables of logs()."""
        return True

    def tables(self):
        """The lists of logs(), built here if not yet: (log_f, coset, z_f,
        la, lb)."""
        logs = self.logs()
        return logs.log_f, logs.coset, logs.z_f, logs.la, logs.lb

    def __repr__(self):
        return f"FieldSpec(p={self.p}, h={self.h}, q2={self.q2})"


class TwoLevelLogs:
    """Discrete logs base g on any F_{q^2} from lists of O(q) ints.

    s = g^(q+1) generates F_q^*, and log_f[a] is the log base s of a nonzero
    a in F_q.  An element is y = alpha + beta*t with alpha, beta in F_q.
    F_q^* has index q + 1 in F_{q^2}^*, so:
    * beta = 0: y is in F_q and log y = (q+1)*log_f[alpha];
    * beta != 0: y = beta*(kappa + t) with kappa = alpha/beta, and
      log y = (q+1)*log_f[beta] + coset[key] mod n, where coset[key] is
      log(kappa + t) and key is log_f[kappa] = log_f[alpha] - log_f[beta]
      mod (q - 1), or the extra key q - 1 for kappa = 0.
    The q keys are the cosets of F_q^* other than F_q^* itself, and g^1..g^q
    lie one in each of them, each with beta != 0; so coset is filled from
    them: g^i = beta_i*(kappa_i + t) gives
    coset[key_i] = i - (q+1)*log_f[beta_i] mod n.  Zero is labelled n.

    alpha and beta are F_p-linear in y: s^0..s^(h-1) is an F_p-basis of
    F_q, and 1, t an F_q-basis of F_{q^2}, so they are read off y's
    coordinates in the basis s^i, s^i*t (i < h) of F_{q^2}, one fixed
    2h x 2h matrix over F_p.  An element of F_q is coded by its h
    coordinates in the basis s^i, Horner's rule with the top one first, an
    int below q: log_f and coset are lists of q ints.  On h = 1 the basis is
    1, t, and the codes are y's two coordinates.

    Zech logarithms Z(d) = log(1 + g^d) (Huber 1990; Lidl-Niederreiter,
    Finite Fields) come from the same lists, with no field multiplication.
    Write d = i + (q+1)*j, 0 <= i <= q, 0 <= j < q - 1, so that
    g^d = s^j * g^i.  The code of 1 is 1, so 1 + x has x's code plus 1,
    the low base-p digit wrapping at p; that gives F_q's own Zech list
    z_f[j] = log_f[1 + s^j], -1 where s^j = -1.  la[i] and lb[i] are the
    log_f of alpha_i and beta_i, the coordinates of g^i (la[i] = -1 where
    alpha_i = 0).  Then:
    * i = 0: 1 + s^j is in F_q, and Z(d) = (q+1)*z_f[j], or n where
      z_f[j] = -1;
    * i > 0: 1 + g^d = alpha + beta*t with beta = s^j*beta_i != 0, so
      log_f[beta] = j + lb[i] mod (q - 1), and alpha = 1 + s^j*alpha_i,
      so log_f[alpha] = z_f[j + la[i] mod (q - 1)], or 0 where alpha_i = 0;
      Z(d) is the log of alpha + beta*t as above.
    labels computes each Z it needs so, when it needs it; no Z is stored.

    exps, the decoder, follows the split n = M*(p - 1), with a = g^M in
    F_p^*: F_p is the scalars, so g^(i + j*M) = a^j * g^i coordinate by
    coordinate.  On h = 1, M = q + 1, a = s, and the base powers g^0..g^q
    are those that fill coset; on h > 1 the M base powers are built by the
    first exps.
    """

    __slots__ = ("field", "q", "n", "log_f", "coset", "z_f", "la", "lb", "run",
                 "scalars", "_coords", "_base", "_exps", "_log_memo", "lh_cache")

    def __init__(self, field):
        p, q, h = field.p, field.q, field.h
        self.field, self.q = field, q
        self.lh_cache = {}  # oracle's (LH, verdict bytes) entries of each H
        self._exps = None
        self._log_memo = {}
        n = self.n = field.q2 - 1
        s_powers = field.power_columns(field.generator ** (q + 1), q - 1)  # s^j, j < q - 1
        self._coords = None  # h = 1: alpha and beta are y's two coordinates
        if h > 1:
            basis = list(zip(*s_powers))[:h]
            t = (0, 1) + (0,) * (2 * h - 2)
            self._coords = _inverse(basis + [field._mul_coeffs(b, t) for b in basis], p)
        log_f = self.log_f = [0] * q
        s_codes = self._codes(s_powers)[0]
        for j, code in enumerate(s_codes):
            log_f[code] = j
        one_plus = [code + 1 - p if code % p == p - 1 else code + 1 for code in s_codes]
        self.z_f = [log_f[code] if code else -1 for code in one_plus]
        powers = field.power_columns(field.generator, q + 1)
        self.coset = [0] * q
        alphas, betas = self._codes(powers)
        self.la = [log_f[alpha] if alpha else -1 for alpha in alphas]
        self.lb = [log_f[beta] for beta in betas]
        for i in range(1, q + 1):
            self.coset[self._key(alphas[i], betas[i])] = (i - (q + 1) * self.lb[i]) % n
        self.run = n // (p - 1)
        a = (field.generator ** self.run).coeffs[0]
        self.scalars = [1]  # a^j, j < p - 1
        for _ in range(p - 2):
            self.scalars.append(self.scalars[-1] * a % p)
        self._base = powers if h == 1 else None

    def _codes(self, cols):
        """The codes of alpha and of beta for a block of coordinate columns."""
        if self._coords is None:
            return cols
        field = self.field
        coords = field._times(self._coords, cols)
        return field.encode(coords[:field.h]), field.encode(coords[field.h:])

    def _key(self, alpha, beta):
        return (self.log_f[alpha] - self.log_f[beta]) % (self.q - 1) if alpha else self.q - 1

    def _log(self, alpha, beta):
        """log y for y = alpha + beta*t, given by the codes of alpha and beta;
        n for y = 0."""
        if beta:
            return ((self.q + 1) * self.log_f[beta] + self.coset[self._key(alpha, beta)]) % self.n
        return (self.q + 1) * self.log_f[alpha] if alpha else self.n

    def log(self, c):
        """log c for an Element c; n for c = 0.  On h > 1 the codes are one
        dot product of c's coordinates with each row of the basis matrix,
        and the label is kept in a memo of up to LOG_MEMO_SIZE entries."""
        coeffs = c.coeffs
        if self._coords is None:
            return self._log(*coeffs)
        label = self._log_memo.get(coeffs)
        if label is None:
            p, h = self.field.p, self.field.h
            digits = [sum(map(mul, row, coeffs)) % p for row in self._coords]
            alpha = beta = 0
            for k in range(h - 1, -1, -1):
                alpha, beta = alpha * p + digits[k], beta * p + digits[h + k]
            label = self._log(alpha, beta)
            if len(self._log_memo) >= LOG_MEMO_SIZE:
                self._log_memo.clear()
            self._log_memo[coeffs] = label
        return label

    def exps(self):
        """The canonical encoding of g^label for label in range(n + 1), 0
        for the zero label n, an array read-only to the caller: each
        coordinate column of the M base powers scaled by a^0, a^1, ... in
        turn, and every label encoded in one pass.  Kept for the next call
        where q^2 <= EXPS_CACHE_LABELS."""
        if self._exps is not None:
            return self._exps
        field, p = self.field, self.field.p
        if self._base is None:
            self._base = field.power_columns(field.generator, self.run)
        codes = array(TABLE_TYPE, field.encode(
            [[u * x % p for u in self.scalars for x in col] for col in self._base]))
        codes.append(0)
        if len(codes) <= EXPS_CACHE_LABELS:
            self._exps = codes
        return codes

    def labels(self, step, terms, count):
        """log of sum c*x^e over the (e, c) in terms (nonzero Elements c) at
        x = g^(step*t), t = 0..count-1, n for a zero value; one label at a
        time.  Term j is the log lc_j + t*step*e_j mod n, and the terms are
        added by Zech logarithms, g^a + g^b = g^(a + Z(b - a)): one Z per
        term, computed from the lists (class docstring)."""
        n, m, q1 = self.n, self.q + 1, self.q - 1
        z_f, la, lb, coset = self.z_f, self.la, self.lb, self.coset
        terms = [(self.log(c), step * e) for e, c in terms]
        if not terms:
            yield from repeat(n, count)
            return
        (lc0, e0), rest = terms[0], terms[1:]
        for t in range(count):
            acc = (lc0 + t * e0) % n
            for lc, e in rest:
                b = (lc + t * e) % n
                if acc == n:
                    acc = b
                    continue
                # g^d = s^j * g^i.  j is negative where b < acc: z_f, of
                # q - 1 entries, wraps it as an index, and the mod n below
                # reduces m * beta, so neither needs j mod q - 1
                d = b - acc
                i, j = d % m, d // m
                if i:
                    beta, a = j + lb[i], la[i]
                    alpha = z_f[(j + a) % q1] if a >= 0 else 0
                    acc = (acc + m * beta + coset[(alpha - beta) % q1 if alpha >= 0 else q1]) % n
                else:
                    z = z_f[j]
                    acc = (acc + m * z) % n if z >= 0 else n
            yield acc


def _inverse(cols, p):
    """The rows of the inverse over F_p of the invertible matrix with the
    given columns, by Gauss-Jordan elimination."""
    size = len(cols)
    rows = [[col[i] for col in cols] + [int(i == j) for j in range(size)] for i in range(size)]
    for c in range(size):
        pivot = next(r for r in range(c, size) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for r in range(size):
            factor = rows[r][c]
            if r != c and factor:
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[c])]
    return [row[size:] for row in rows]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_field(p, h, seed=DEFAULT_SEED, max_size=DEFAULT_MAX_FIELD_SIZE):
    """Build F_{q^2} with q = p^h: seeded random irreducible modulus of degree
    2h over F_p, then a seeded random generator of order q^2 - 1.

    Deterministic for a fixed seed.  Raises ValueError for h < 1, then
    SizeExceeded when p^2h exceeds max_size, then NotPrime unless p is an
    odd prime, before any work grows with p or h.
    """
    check_field(p, h, max_size)
    return _build_field_cached(p, h, seed)


def check_field(p, h, max_size):
    """The one guard on (p, h), cheapest test first, so no work grows with an
    oversized input: ValueError for h < 1, then SizeExceeded when p^2h
    exceeds max_size (an h past max_size's bit length is refused before the
    power is taken), then NotPrime unless p is an odd prime."""
    if h < 1:
        raise ValueError(f"extension degree must be >= 1, got {h}")
    if h > max_size.bit_length() or p ** (2 * h) > max_size:
        raise SizeExceeded(f"{p}^{2 * h}", max_size)
    if not is_prime(p) or p == 2:
        raise NotPrime(p)


@lru_cache(maxsize=None)
def _build_field_cached(p, h, seed):
    rng = random.Random(seed)
    degree = 2 * h
    while True:
        modulus = [rng.randrange(p) for _ in range(degree)] + [1]
        if _poly_is_irreducible(modulus, p):
            break
    return FieldSpec(p, h, modulus, _find_generator(p, h, modulus, rng))


def _find_generator(p, h, modulus, rng):
    probe = FieldSpec(p, h, modulus, (1,) + (0,) * (2 * h - 1))
    while True:
        candidate = probe.from_int(rng.randrange(1, probe.q2))
        if verify_generator(probe, candidate):
            return candidate.coeffs


def verify_generator(field, g):
    """True iff g has multiplicative order exactly n = q^2 - 1 in the ring
    F_p[t]/(m) of field, m irreducible or not: no g^(n/prime) is 1, and
    g^n = 1, with n not reduced."""
    n, one = field.q2 - 1, field.one.coeffs
    return all(field._pow_coeffs(g.coeffs, n // prime) != one
               for prime, _ in field.factorization) and field._pow_coeffs(g.coeffs, n) == one


# ---------------------------------------------------------------------------
# field description files
# ---------------------------------------------------------------------------

def field_to_text(field):
    """Serialize to the line-oriented field description format."""
    return (
        f"p={field.p}\n"
        f"h={field.h}\n"
        f"modulus={','.join(str(c) for c in field.modulus)}\n"
        f"generator={int(field.generator)}\n"
    )


def field_from_text(text, max_size=DEFAULT_MAX_FIELD_SIZE):
    """Parse and fully validate a field description file.

    Raises ValueError on malformed input, on a reducible modulus and on a
    generator of the wrong order, after (p, h) pass check_field.
    """
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    missing = {"p", "h", "modulus", "generator"} - entries.keys()
    if missing:
        raise ValueError(f"field description missing keys: {sorted(missing)}")
    p = int(entries["p"])
    h = int(entries["h"])
    check_field(p, h, max_size)
    modulus = [int(c) % p for c in entries["modulus"].split(",")]
    if len(modulus) != 2 * h + 1 or modulus[-1] != 1:
        raise ValueError("modulus must be monic of degree 2h")
    if not _poly_is_irreducible(modulus, p):
        raise ValueError("modulus is not irreducible")
    field = FieldSpec(p, h, modulus, (0,) * 2 * h)
    generator = field.from_int(int(entries["generator"]))
    if not verify_generator(field, generator):
        raise ValueError("generator does not have order q^2 - 1")
    return FieldSpec(p, h, modulus, generator.coeffs)
