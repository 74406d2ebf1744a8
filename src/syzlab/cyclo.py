"""Exact scalars: arbitrary-precision rationals and cyclotomic numbers.

One scalar convention holds from the wire to every result: an integral
value is an ``int``, any other rational a ``fractions.Fraction`` (reduced,
positive denominator), and an irrational value a ``Cyclotomic``.
Irrational values live in Q(zeta_N) represented on the power basis
1, z, ..., z^(phi(N)-1) modulo the N-th cyclotomic polynomial, each
power-basis coefficient again an ``int`` or a ``Fraction`` by the same
rule, so elements of Z[zeta_N] compute with ints only. Arithmetic between
different conductors lifts both operands to the lcm first. Every product
adds each x_i * y_j along z^(i+j) mod Phi_N, read off one table per
conductor; lifts and inverses reduce through the same table. Results
that turn out rational are demoted to int or Fraction, so a Cyclotomic
instance produced by arithmetic is always irrational (adding 0 or
multiplying by 1 returns the operand). Integer division (`/` on two
ints) and negative integer powers would give floats: exact quotients go
through `quotient`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InternalInconsistency, InvalidInput, LimitExceeded

DEFAULT_CONDUCTOR_LIMIT = 64

Scalar = object  # int | Fraction | Cyclotomic


def totient(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def _int_if_integral(x):
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def quotient(x, k: int):
    """x / k for a nonzero int k, under the scalar convention: an int when
    the quotient is integral."""
    if isinstance(x, int):
        q, r = divmod(x, k)
        return Fraction(x, k) if r else q
    return _int_if_integral(x / k)


def _poly_divmod_exact(num, den):
    """Quotient of integer polynomials known to divide exactly (ascending coeffs)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(num[k + len(den) - 1], den[-1])
        if rem:
            raise InternalInconsistency("cyclotomic polynomial division was not exact")
        q[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num):
        raise InternalInconsistency("cyclotomic polynomial division was not exact")
    return q


@lru_cache(maxsize=None)
def _cyclotomic_poly_cached(n: int):
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_exact(num, _cyclotomic_poly_cached(d))
    return tuple(num)


def cyclotomic_polynomial(n: int, limit: int = DEFAULT_CONDUCTOR_LIMIT):
    """Integer coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n < 1:
        raise InvalidInput(f"conductor must be positive, got {n}")
    if n > limit:
        raise LimitExceeded(f"conductor {n} exceeds limit {limit}")
    return list(_cyclotomic_poly_cached(n))


@lru_cache(maxsize=None)
def _power_table(n: int):
    """z^k modulo Phi_n for k < max(2 phi(n) - 1, n): every power a product
    of two reduced elements reaches, and every power a lift to Q(zeta_n)
    places. Per k, the nonzero (j, coefficient of z^j)."""
    phi = _cyclotomic_poly_cached(n)
    deg = len(phi) - 1
    table, power = [], [1] + [0] * (deg - 1)
    for _ in range(max(2 * deg - 1, n)):
        table.append(tuple((j, c) for j, c in enumerate(power) if c))
        top = power[-1]  # times z: z^deg = -(phi_0 + ... + phi_(deg-1) z^(deg-1))
        power = [0] + power[:-1]
        for j in range(deg):
            power[j] -= top * phi[j]
    return tuple(table)


def _reduced(coeffs, n):
    """sum_k coeffs[k] z^k modulo Phi_n, through the power table: phi(n)
    coefficients, integral for integral input."""
    out = [0] * (len(_cyclotomic_poly_cached(n)) - 1)
    table = _power_table(n)
    for k, c in enumerate(coeffs):
        if c:
            for j, t in table[k]:
                out[j] += t * c
    return out


class Cyclotomic:
    """Element of Q(zeta_N) on the power basis, fully reduced modulo Phi_N.

    `coeffs` holds phi(N) coefficients, each an int when integral and a
    Fraction otherwise."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        self.conductor = conductor
        self.coeffs = tuple(_int_if_integral(Fraction(c)) for c in coeffs)
        if len(self.coeffs) != totient(conductor):
            raise InvalidInput(
                f"conductor {conductor} needs {totient(conductor)} coefficients, "
                f"got {len(self.coeffs)}"
            )

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _normalized(conductor, coeffs):
        """The element with reduced int/Fraction coefficients `coeffs`: an
        int or a Fraction when it is rational, otherwise a Cyclotomic whose
        integral coefficients are ints and the others Fractions."""
        if not any(coeffs[1:]):
            return _int_if_integral(coeffs[0]) if coeffs else 0
        el = Cyclotomic.__new__(Cyclotomic)
        el.conductor = conductor
        fractions = Fraction in map(type, coeffs)
        el.coeffs = tuple(map(_int_if_integral, coeffs) if fractions else coeffs)
        return el

    def lift(self, m: int):
        """Coefficients of the same element in Q(zeta_m); requires conductor | m."""
        if m == self.conductor:
            return list(self.coeffs)
        if m % self.conductor != 0:
            raise InvalidInput(f"cannot lift conductor {self.conductor} to {m}")
        step = m // self.conductor
        raw = [0] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            raw[i * step] = c
        return _reduced(raw, m)

    def _pair(self, other):
        """(conductor, coefficients of self and of the Cyclotomic other),
        lifted to the lcm only when the conductors differ."""
        if other.conductor == self.conductor:
            return self.conductor, self.coeffs, other.coeffs
        m = lcm(self.conductor, other.conductor)
        return m, self.lift(m), other.lift(m)

    def _shifted(self, q):
        """self + q for a rational q."""
        if not q:
            return self
        coeffs = list(self.coeffs)
        coeffs[0] += q
        return Cyclotomic._normalized(self.conductor, coeffs)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if type(other) is Cyclotomic:
            n, a, b = self._pair(other)
            return Cyclotomic._normalized(n, [x + y for x, y in zip(a, b)])
        if isinstance(other, (int, Fraction)):
            return self._shifted(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._normalized(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        if type(other) is Cyclotomic:
            n, a, b = self._pair(other)
            return Cyclotomic._normalized(n, [x - y for x, y in zip(a, b)])
        if isinstance(other, (int, Fraction)):
            return self._shifted(-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if type(other) is Cyclotomic:
            n, a, b = self._pair(other)
            table = _power_table(n)
            out = [0] * len(a)
            for i, x in enumerate(a):
                if x:
                    for k, y in enumerate(b, i):
                        if y:
                            xy = x * y
                            for j, t in table[k]:
                                out[j] += xy if t == 1 else -xy if t == -1 else t * xy
            return Cyclotomic._normalized(n, out)
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if other == 0:
                return 0
            other = _int_if_integral(other)
            return Cyclotomic._normalized(self.conductor, [c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        """1/a = (product of sigma_k(b) over k != 1) * m / N(b), where
        b = m a is integral. The Galois automorphism sigma_k, k prime to N,
        sends z to z^k; the norm N(b), the product over every k, is a
        nonzero integer. All products run in Z[zeta_N]."""
        if not self:
            raise ZeroDivisionError("zero has no inverse")
        n = self.conductor
        m = lcm(*(c.denominator for c in self.coeffs))
        b = [(c * m).numerator for c in self.coeffs]
        others = 1
        for k in range(2, n):
            if gcd(k, n) == 1:
                raw = [0] * n
                for i, c in enumerate(b):
                    raw[i * k % n] = c
                others = others * Cyclotomic._normalized(n, _reduced(raw, n))
        norm = as_rational(others * Cyclotomic._normalized(n, b))
        if not norm:
            raise InternalInconsistency(f"norm in Q(zeta_{n}) is not a nonzero rational")
        return _int_if_integral(others * Fraction(m, norm))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / Fraction(other))
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result: Scalar = 1
        base: Scalar = self
        while k:
            if k & 1:
                result = base * result
            base = base * base
            k >>= 1
        return result

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # Arithmetic demotes rational values, but hand-built instances
            # may still hold one.
            return all(c == 0 for c in self.coeffs[1:]) and self.coeffs[0] == other
        if isinstance(other, Cyclotomic):
            n, a, b = self._pair(other)
            return a == b
        return NotImplemented

    __hash__ = None  # values are not dict keys; use wire encoding for that

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z{self.conductor}^{i}" if i else f"{c}")
        return " + ".join(terms) if terms else "0"


def zeta(n: int) -> Scalar:
    """A primitive n-th root of unity."""
    cyclotomic_polynomial(n)  # conductor limit check
    if n == 1:
        return 1
    if n == 2:
        return -1
    coeffs = [0] * totient(n)
    coeffs[1] = 1
    return Cyclotomic(n, coeffs)


def as_rational(x: Scalar):
    """The rational value of x, an int when integral and a Fraction
    otherwise, or None when x is irrational."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return _int_if_integral(x)
    if isinstance(x, Cyclotomic):
        if not any(x.coeffs[1:]):
            return x.coeffs[0]
        return None
    raise TypeError(f"not a scalar: {x!r}")


def as_integer(x: Scalar):
    """The int value of x, or None when x is not a rational integer."""
    q = as_rational(x)
    return q if type(q) is int else None


def bit_size(x: Scalar) -> int:
    """Rough coefficient size, used for pivot selection."""
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    return sum(
        c.numerator.bit_length() + c.denominator.bit_length() for c in x.coeffs
    )


def scalar_key(x: Scalar):
    """Canonical hashable key; equal scalars share a key."""
    if type(x) is int:
        return (x, 1)
    q = as_rational(x)
    if q is not None:
        return (q.numerator, q.denominator)
    return (x.conductor, tuple((c.numerator, c.denominator) for c in x.coeffs))


# -- wire encoding ---------------------------------------------------------------
# A bare [num, den] pair is a rational; cyclotomics carry their conductor.


def encode_scalar(x: Scalar):
    if type(x) is int:
        return [x, 1]
    q = as_rational(x)
    if q is not None:
        return [q.numerator, q.denominator]
    return {
        "conductor": x.conductor,
        "coeffs": [[c.numerator, c.denominator] for c in x.coeffs],
    }


def is_int(x) -> bool:
    """An integer and not a bool: JSON's true and false decode to bools,
    which isinstance(x, int) accepts."""
    return type(x) is int


def decode_scalar(obj, limit: int = DEFAULT_CONDUCTOR_LIMIT) -> Scalar:
    if is_int(obj):
        return obj
    if isinstance(obj, list):
        if len(obj) != 2 or not all(is_int(v) for v in obj):
            raise InvalidInput(f"rational encoding must be [num, den], got {obj!r}")
        if obj[1] <= 0:
            raise InvalidInput(f"denominator must be positive in {obj!r}")
        q, r = divmod(obj[0], obj[1])
        return Fraction(obj[0], obj[1]) if r else q
    if isinstance(obj, dict):
        try:
            n = obj["conductor"]
            coeffs = obj["coeffs"]
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"bad cyclotomic encoding: {obj!r}") from exc
        if not is_int(n) or n < 1:
            raise InvalidInput(f"bad conductor in {obj!r}")
        cyclotomic_polynomial(n, limit)
        vals = [decode_scalar(c, limit) for c in coeffs]
        if len(vals) != totient(n):
            raise InvalidInput(
                f"conductor {n} needs {totient(n)} coefficients, got {len(vals)}"
            )
        rationals = [as_rational(v) for v in vals]
        if None in rationals:
            raise InvalidInput(f"cyclotomic coefficients must be rational in {obj!r}")
        return Cyclotomic._normalized(n, rationals)
    raise InvalidInput(f"not a scalar encoding: {obj!r}")
