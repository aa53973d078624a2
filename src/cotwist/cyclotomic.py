"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are kept in the power basis zeta^0..zeta^(N-1) with exponents
reduced mod N only (so the raw representation lives in Q[x]/(x^N - 1));
canonicalisation divides by the N-th cyclotomic polynomial and happens
lazily, at equality tests and serialisation.  There is deliberately no
floating point anywhere: every identity the engine checks is an exact
equality in Q(zeta_N).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def _poly_divmod(num, den):
    """Exact division with remainder for dense Fraction coefficient lists."""
    num = list(num)
    deg_d = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(1, len(num) - deg_d)
    while len(num) - 1 >= deg_d and any(num):
        # strip trailing zeros first
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < deg_d:
            break
        shift = len(num) - 1 - deg_d
        factor = num[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Dense coefficient list of Phi_n, computed by exact recursive division."""
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    if n == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


@lru_cache(maxsize=None)
def _phi(n):
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _power_reduction(n, k):
    """x^k mod Phi_n as a tuple of Fractions of length phi(n)."""
    deg = _phi(n)
    if k < deg:
        out = [Fraction(0)] * deg
        out[k] = Fraction(1)
        return tuple(out)
    phi = cyclotomic_polynomial(n)
    # x^k = x * x^(k-1) mod Phi_n
    prev = list(_power_reduction(n, k - 1))
    out = [Fraction(0)] * deg
    for i, c in enumerate(prev):
        if c == 0:
            continue
        if i + 1 < deg:
            out[i + 1] += c
        else:
            # x^deg = -(phi[0] + phi[1] x + ...)/phi[deg], phi is monic
            for j in range(deg):
                out[j] -= c * phi[j]
    return tuple(out)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


class Cyc:
    """An element of Q(zeta_order), as a sparse map exponent -> Fraction."""

    __slots__ = ("order", "coeffs", "_canon")

    def __init__(self, order, coeffs=None):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = order
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                v = _as_fraction(v)
                if v:
                    k %= order
                    w = self.coeffs.get(k)
                    if w is None:
                        self.coeffs[k] = v
                    else:
                        w += v
                        if w:
                            self.coeffs[k] = w
                        else:
                            del self.coeffs[k]
        self._canon = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(order):
        return Cyc(order)

    @staticmethod
    def one(order):
        return Cyc(order, {0: 1})

    @staticmethod
    def rational(q, order=1):
        return Cyc(order, {0: _as_fraction(q)})

    @staticmethod
    def root(order, k=1):
        """zeta_order^k, the exact primitive root of unity power."""
        if order < 1:
            raise ValueError("root order must be >= 1")
        return Cyc(order, {k % order: 1})

    @staticmethod
    def i(order=4):
        if order % 4:
            raise ValueError("sqrt(-1) needs 4 | order")
        return Cyc(order, {order // 4: 1})

    # -- order handling ---------------------------------------------------

    def embed(self, order):
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        step = order // self.order
        return Cyc(order, {k * step: v for k, v in self.coeffs.items()})

    def _match(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other, self.order)
        if not isinstance(other, Cyc):
            return NotImplemented, NotImplemented
        if self.order == other.order:
            return self, other
        m = self.order * other.order // math.gcd(self.order, other.order)
        return self.embed(m), other.embed(m)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        out = dict(a.coeffs)
        for k, v in b.coeffs.items():
            w = out.get(k)
            if w is None:
                out[k] = v
            else:
                w += v
                if w:
                    out[k] = w
                else:
                    del out[k]
        c = Cyc(a.order)
        c.coeffs = out
        return c

    __radd__ = __add__

    def __neg__(self):
        c = Cyc(self.order)
        c.coeffs = {k: -v for k, v in self.coeffs.items()}
        return c

    def __sub__(self, other):
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            c = Cyc(self.order)
            if q:
                c.coeffs = {k: v * q for k, v in self.coeffs.items()}
            return c
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        n = a.order
        out = {}
        for k1, v1 in a.coeffs.items():
            for k2, v2 in b.coeffs.items():
                k = k1 + k2
                if k >= n:
                    k -= n
                w = out.get(k)
                if w is None:
                    out[k] = v1 * v2
                else:
                    w += v1 * v2
                    if w:
                        out[k] = w
                    else:
                        del out[k]
        c = Cyc(n)
        c.coeffs = out
        return c

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse, by extended Euclid modulo Phi_order."""
        can = self.canonical()
        if not can:
            raise ZeroDivisionError("division by zero in Q(zeta)")
        n = self.order
        phi = list(cyclotomic_polynomial(n))
        deg = len(phi) - 1
        a = [Fraction(0)] * deg
        for k, v in can:
            a[k] = v
        while a and a[-1] == 0:
            a.pop()
        # extended gcd of a and phi over Q[x]
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        t0, t1 = [Fraction(1)], [Fraction(0)]
        while r1:
            q, r = _poly_divmod(r0, r1)

            def _comb(u0, u1, q=q):
                prod = [Fraction(0)] * (len(q) + len(u1))
                for i, qi in enumerate(q):
                    if qi == 0:
                        continue
                    for j, uj in enumerate(u1):
                        prod[i + j] += qi * uj
                out = list(u0) + [Fraction(0)] * max(0, len(prod) - len(u0))
                for i, p in enumerate(prod):
                    out[i] -= p
                while out and out[-1] == 0:
                    out.pop()
                return out

            r0, r1 = r1, r
            s0, s1 = s1, _comb(s0, s1)
            t0, t1 = t1, _comb(t0, t1)
        # r0 = gcd (a unit since Phi_n is irreducible and a != 0 mod Phi_n)
        unit = r0[0] if len(r0) == 1 else None
        if unit is None or unit == 0:
            raise ZeroDivisionError("element is a zero divisor mod Phi_n")
        inv_coeffs = {i: c / unit for i, c in enumerate(s0) if c}
        return Cyc(n, inv_coeffs)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero in Q(zeta)")
            return self * Fraction(q.denominator, q.numerator)
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyc.rational(_as_fraction(other), self.order) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        """Complex conjugation zeta^k -> zeta^(order-k)."""
        n = self.order
        c = Cyc(n)
        c.coeffs = {(n - k) % n: v for k, v in self.coeffs.items()}
        return c

    # -- canonical form ---------------------------------------------------

    def canonical(self):
        """Sorted tuple of (exponent, coeff) after reduction mod Phi_order."""
        if self._canon is None:
            n = self.order
            deg = _phi(n)
            acc = [Fraction(0)] * deg
            for k, v in self.coeffs.items():
                if k < deg:
                    acc[k] += v
                else:
                    red = _power_reduction(n, k)
                    for i, c in enumerate(red):
                        if c:
                            acc[i] += v * c
            self._canon = tuple((i, c) for i, c in enumerate(acc) if c)
        return self._canon

    def is_zero(self):
        if not self.coeffs:
            return True
        return not self.canonical()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other, self.order)
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.order == other.order:
            if self.coeffs == other.coeffs:
                return True
            return (self - other).is_zero()
        return (self - other).is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        raise TypeError("Cyc is not hashable; compare canonical() tuples")

    def __repr__(self):
        return f"Cyc({self.order}, {format_scalar(self)!r})"


def format_scalar(c):
    """Canonical human/machine readable form, e.g. '1/2*zeta(12)^5 - 1'."""
    can = c.canonical()
    if not can:
        return "0"
    parts = []
    for k, q in can:
        if k == 0:
            body = str(q)
        else:
            z = f"zeta({c.order})^{k}" if k != 1 else f"zeta({c.order})"
            if q == 1:
                body = z
            elif q == -1:
                body = f"-{z}"
            else:
                body = f"{q}*{z}"
        parts.append(body)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def root_from_fraction(t, order):
    """e^(2*pi*i*t) for rational t, as an element of Q(zeta_order)."""
    t = _as_fraction(t)
    if (t * order).denominator != 1:
        raise ValueError(f"exponent {t} not representable at order {order}")
    return Cyc.root(order, int(t * order))
