"""Exact arithmetic in F_{q^2} for q = p^h an odd prime power.

The field is realized as F_p[t] / (m(t)) with m monic irreducible of degree
2h, i.e. a single extension of the prime field rather than a tower over F_q.
An element is a vector of 2h residues mod p in little-endian order (index i
holds the coefficient of t^i).  The canonical integer encoding of an element
is sum(coeffs[i] * p^i), an integer in [0, q^2); it is used for element
serialization everywhere.

Fields are built by seeded random search (irreducible modulus, then a
generator of the full multiplicative group), so construction is deterministic
for a fixed seed.  FieldSpec and Element are immutable after construction and
safe to share between threads; all operations are pure.
"""

from functools import lru_cache
from operator import mul
import random

from .errors import DivisionByZero, FieldMismatch, NotPrime, SizeExceeded

DEFAULT_MAX_FIELD_SIZE = 1 << 26
DEFAULT_SEED = 0

# Largest q^2 for which the exp/log/Zech tables (three lists of about q^2
# ints) are built; beyond it the oracle walks x = g^t with running products.
TABLE_LIMIT = 1 << 18


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


def _poly_mulmod(a, b, m, p):
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _poly_mod(prod, m, p)


def _poly_powmod(base, e, m, p):
    result = [1]
    base = _poly_mod(list(base), m, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, m, p)
        base = _poly_mulmod(base, base, m, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic_b = [c * inv_lead % p for c in b]
        a, b = b, _poly_mod(a, monic_b, p)
    return a


def _poly_is_irreducible(m, p):
    """Irreducibility of a monic polynomial via the x^(p^i) gcd test."""
    n = len(m) - 1
    if n < 1 or m[-1] != 1:
        return False
    # x^(p^k) mod m, by k successive p-th powerings
    xpk = [0, 1]
    powers = {}
    for k in range(1, n + 1):
        xpk = _poly_powmod(xpk, p, m, p)
        powers[k] = xpk
    x = [0, 1]
    if _poly_mod([(a - b) % p for a, b in _zip_pad(powers[n], x)], m, p):
        return False
    for t, _ in factorize(n):
        diff = [(a - b) % p for a, b in _zip_pad(powers[n // t], x)]
        g = _poly_gcd(m, diff, p)
        if len(g) - 1 != 0:
            return False
    return True


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


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
        """Square-and-multiply power; a negative exponent inverts first.

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
        e %= field.q2 - 1
        result = field.one.coeffs
        base = self.coeffs
        mul = field._mul_coeffs
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base)
            e >>= 1
        return Element(field, result)

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return self ** (self.field.q2 - 2)

    def __truediv__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self * other.inverse()

    def frobenius(self):
        """The q-th power map a -> a^q (conjugation over F_q)."""
        return self ** self.field.q

    def multiplicative_order(self):
        """Least e > 0 with self^e == 1; divides q^2 - 1."""
        if self.is_zero():
            raise DivisionByZero("order of zero")
        e = self.field.q2 - 1
        one = self.field.one
        for prime, _ in self.field.factorization:
            while e % prime == 0 and self ** (e // prime) == one:
                e //= prime
        return e

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
    """The tower F_p < F_q < F_{q^2}: modulus, generator, cached orders.

    Immutable after construction.  Use build_field() or field_from_text()
    rather than the constructor; both validate their inputs.
    """

    def __init__(self, p, h, modulus, generator_coeffs):
        self.p = p
        self.h = h
        self.q = p ** h
        self.q2 = self.q ** 2
        self.modulus = tuple(modulus)
        self.degree = 2 * h
        self.factorization = factorize(self.q2 - 1)
        self._reduce_rows = self._build_reduce_rows()
        self.zero = Element(self, (0,) * self.degree)
        self.one = self.from_int(1)
        self.generator = Element(self, tuple(generator_coeffs))
        self._exp = None
        self._log = None
        self._zech = None

    def _build_reduce_rows(self):
        # row[i] = coefficient vector of t^(2h+i) modulo the modulus
        p, n = self.p, self.degree
        rows = []
        row = [(-c) % p for c in self.modulus[:n]]
        for _ in range(n - 1):
            rows.append(tuple(row))
            top = row[n - 1]
            row = [0] + row[:n - 1]
            if top:
                for j in range(n):
                    row[j] = (row[j] - top * self.modulus[j]) % p
        rows.append(tuple(row))
        return tuple(rows)

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

    def multiplier(self, a):
        """The F_p-linear map v -> a*v on coefficient vectors, as a function.

        Its matrix is built once, so each call costs (2h)^2 products and no
        reduction by the modulus; a is a coefficient vector.
        """
        n, p = self.degree, self.p
        units = [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)]
        rows = tuple(zip(*(self._mul_coeffs(a, unit) for unit in units)))

        def times_a(v):
            return tuple([sum(map(mul, row, v)) % p for row in rows])

        return times_a

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

    # -- exp/log/Zech tables (the oracle's log-domain walk) --

    def tables_supported(self):
        return self.q2 <= TABLE_LIMIT

    def tables(self):
        """(exp, log, zech) for the generator g; built once, lazily.

        exp[i] is the canonical encoding of g^i for 0 <= i < q^2 - 1, log is
        its inverse (log[0] is None), and zech[i] = log(1 + g^i) is the Zech
        logarithm, None where 1 + g^i = 0.  With them g^a + g^b is
        g^(a + zech[b - a]), one lookup at any extension degree.
        """
        if self._exp is None:
            if not self.tables_supported():
                raise SizeExceeded(self.q2, TABLE_LIMIT)
            p, n = self.p, self.q2 - 1
            exp = [0] * n
            log = [None] * self.q2
            cur = self.one.coeffs
            times_g = self.multiplier(self.generator.coeffs)
            powers = [p ** i for i in range(self.degree)]
            for i in range(n):
                canon = sum(map(mul, cur, powers))
                exp[i] = canon
                log[canon] = i
                cur = times_g(cur)
            # adding 1 changes only the t^0 coefficient of the encoding
            zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in exp]
            self._exp, self._log, self._zech = exp, log, zech
        return self._exp, self._log, self._zech

    def __repr__(self):
        return f"FieldSpec(p={self.p}, h={self.h}, q2={self.q2})"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_field(p, h, seed=DEFAULT_SEED, max_size=DEFAULT_MAX_FIELD_SIZE):
    """Build F_{q^2} with q = p^h: seeded random irreducible modulus of degree
    2h over F_p, then a seeded random generator of order q^2 - 1.

    Deterministic for a fixed seed.  Raises NotPrime for composite or even p,
    SizeExceeded when p^2h exceeds max_size.
    """
    if not is_prime(p) or p == 2:
        raise NotPrime(p)
    if h < 1:
        raise ValueError(f"extension degree must be >= 1, got {h}")
    if p ** (2 * h) > max_size:
        raise SizeExceeded(p ** (2 * h), max_size)
    return _build_field_cached(p, h, seed)


@lru_cache(maxsize=None)
def _build_field_cached(p, h, seed):
    rng = random.Random(seed)
    degree = 2 * h
    while True:
        modulus = [rng.randrange(p) for _ in range(degree)] + [1]
        if _poly_is_irreducible(modulus, p):
            break
    field = FieldSpec(p, h, modulus, _find_generator(p, h, modulus, rng))
    return field


def _find_generator(p, h, modulus, rng):
    q2 = p ** (2 * h)
    n = q2 - 1
    primes = [prime for prime, _ in factorize(n)]
    probe = FieldSpec(p, h, modulus, (1,) + (0,) * (2 * h - 1))
    while True:
        candidate = probe.from_int(rng.randrange(1, q2))
        if all((candidate ** (n // ell)) != probe.one for ell in primes):
            return candidate.coeffs


def verify_generator(field, g):
    """True iff g has multiplicative order exactly q^2 - 1."""
    if g.is_zero():
        return False
    n = field.q2 - 1
    if g ** n != field.one:
        return False
    return all(g ** (n // prime) != field.one for prime, _ in field.factorization)


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

    Raises ValueError on malformed input, NotPrime / irreducibility /
    generator-order failures as appropriate, and SizeExceeded when p^2h
    exceeds max_size, before any primality, irreducibility or order test.
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
    if h > max_size.bit_length() or p ** (2 * h) > max_size:
        raise SizeExceeded(f"{p}^{2 * h}", max_size)
    if not is_prime(p) or p == 2:
        raise NotPrime(p)
    if h < 1:
        raise ValueError(f"extension degree must be >= 1, got {h}")
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
