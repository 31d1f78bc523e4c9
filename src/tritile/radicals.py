"""Exact arithmetic for finite sums of square roots of rationals.

A :class:`LengthExpr` represents a number of the form ``sum(c_i * sqrt(r_i))``
with rational ``c_i`` and nonnegative rational ``r_i``.  Segment lengths,
perimeters and triangle-inequality margins all live in this class, so the
library never needs floating point to decide a sign.

Canonical form: two terms are merged whenever the ratio of their radicands
is the square of a rational (``sqrt(8) = 2*sqrt(2)``), and the smaller
radicand is kept as the class representative.  After that merge, square
roots of the surviving radicands are linearly independent over the
rationals (square roots of distinct squarefree kernels are), so the
expression is zero exactly when no term survives.  That makes ``==`` and
``!=`` decidable by pure rational arithmetic; they never refine.  A sum
of many terms is canonicalised once, by :meth:`LengthExpr.sum`.  The
order comparisons ``<``, ``<=``, ``>`` and ``>=`` read the sign of the
difference, decided by interval refinement with doubling precision, which
terminates because the difference is known to be nonzero by the time
refinement starts: the enclosure width shrinks to 0 as the precision
doubles, so it eventually excludes 0, however large the coordinates are.
There is no precision cap.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: First precision used when refining an enclosure for a sign decision.
START_BITS = 64


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Return sqrt(q) if q is a perfect square of a rational, else None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    if rn * rn != q.numerator:
        return None
    rd = math.isqrt(q.denominator)
    if rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed rational interval enclosing a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, c: Fraction) -> "Interval":
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi


def sqrt_enclosure(r: Fraction, bits: int) -> Interval:
    """Enclosure of sqrt(r) with absolute width at most 2**-bits.

    Uses integer square roots only: with m = num*den, isqrt(m << 2*bits)
    brackets sqrt(m) * 2**bits between consecutive integers.
    """
    if r < 0:
        raise ValueError("negative radicand")
    if r == 0:
        return Interval(ZERO, ZERO)
    m = r.numerator * r.denominator
    scaled = m << (2 * bits)
    s = math.isqrt(scaled)
    den = r.denominator << bits
    if s * s == scaled:
        exact = Fraction(s, den)
        return Interval(exact, exact)
    return Interval(Fraction(s, den), Fraction(s + 1, den))


def _merge_terms(raw: list[tuple[Fraction, Fraction]]) -> tuple[tuple[Fraction, Fraction], ...]:
    """Canonicalize a list of (radicand, coefficient) pairs.

    Radicands with a rational-square ratio join one class; the class keeps
    the smallest radicand seen as representative.  Perfect-square radicands
    fold into the rational class (radicand 1).  Zero coefficients drop out.
    """
    classes: list[list[Fraction]] = []  # [rep, coeff]
    for r, c in raw:
        if c == 0 or r == 0:
            continue
        if r < 0:
            raise ValueError("negative radicand")
        s = rational_sqrt(r)
        if s is not None:
            r, c = ONE, c * s
        for cls in classes:
            ratio = rational_sqrt(r / cls[0])
            if ratio is None:
                continue
            if r < cls[0]:
                # shrink representative: sqrt(rep_old) = sqrt(rep_old/r)*sqrt(r)
                cls[1] = cls[1] / ratio + c
                cls[0] = r
            else:
                cls[1] += c * ratio
            break
        else:
            classes.append([r, c])
    return tuple(sorted((r, c) for r, c in classes if c != 0))


class LengthExpr:
    """Immutable exact sum of square roots of nonnegative rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: list[tuple[Fraction, Fraction]] | None = None):
        object.__setattr__(self, "_terms", _merge_terms(terms or []))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LengthExpr is immutable")

    @classmethod
    def rational(cls, c: Fraction | int) -> "LengthExpr":
        return cls([(ONE, Fraction(c))])

    @classmethod
    def sqrt(cls, r: Fraction | int, coeff: Fraction | int = 1) -> "LengthExpr":
        """The expression coeff * sqrt(r)."""
        return cls([(Fraction(r), Fraction(coeff))])

    @classmethod
    def sum(cls, exprs: Iterable["LengthExpr"]) -> "LengthExpr":
        """The sum of all of exprs, canonicalised once (empty sum: zero)."""
        return cls([term for e in exprs for term in e._terms])

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Canonical (radicand, coefficient) pairs, radicands ascending."""
        return self._terms

    def is_zero(self) -> bool:
        # canonical form is empty iff the represented real is zero
        return not self._terms

    def is_rational(self) -> Fraction | None:
        """The exact rational value, or None if irrational."""
        if not self._terms:
            return ZERO
        if len(self._terms) == 1 and self._terms[0][0] == 1:
            return self._terms[0][1]
        return None

    def __add__(self, other: "LengthExpr") -> "LengthExpr":
        if not isinstance(other, LengthExpr):
            return NotImplemented
        return LengthExpr(list(self._terms) + list(other._terms))

    def __sub__(self, other: "LengthExpr") -> "LengthExpr":
        if not isinstance(other, LengthExpr):
            return NotImplemented
        return LengthExpr(list(self._terms) + [(r, -c) for r, c in other._terms])

    def __neg__(self) -> "LengthExpr":
        return LengthExpr([(r, -c) for r, c in self._terms])

    def __mul__(self, k: Fraction | int) -> "LengthExpr":
        if not isinstance(k, (Fraction, int)):
            return NotImplemented
        return LengthExpr([(r, c * k) for r, c in self._terms])

    __rmul__ = __mul__

    def enclosure(self, bits: int) -> Interval:
        """Rational interval containing the exact value."""
        total = Interval(ZERO, ZERO)
        for r, c in self._terms:
            if r == 1:
                total = total + Interval(c, c)
            else:
                total = total + sqrt_enclosure(r, bits).scale(c)
        return total

    def refine_until(self, done: Callable[[Interval], bool],
                     start_bits: int = START_BITS) -> Interval:
        """First enclosure at start_bits, 2*start_bits, ... that `done`
        accepts; terminates if `done` accepts every narrow enough one."""
        bits = start_bits
        while not done(iv := self.enclosure(bits)):
            bits *= 2
        return iv

    def refine(self, max_width: Fraction, start_bits: int = START_BITS) -> Interval:
        """Enclosure with width at most max_width (which must be positive)."""
        if max_width <= 0:
            raise ValueError("max_width must be positive")
        return self.refine_until(lambda iv: iv.width <= max_width, start_bits)

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        if not self._terms:
            return 0
        # a nonzero canonical form has a nonzero value (module docstring),
        # so some enclosure excludes 0
        iv = self.refine_until(lambda iv: iv.lo > 0 or iv.hi < 0)
        return 1 if iv.lo > 0 else -1

    # Rich comparisons are value comparisons; note that __eq__ therefore
    # deliberately disagrees with identity of the canonical forms
    # (sqrt(18) == 3*sqrt(2) holds) and LengthExpr is not hashable.
    __hash__ = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LengthExpr):
            return NotImplemented
        return (self - other).is_zero()

    def __lt__(self, other: "LengthExpr") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "LengthExpr") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "LengthExpr") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "LengthExpr") -> bool:
        return (self - other).sign() >= 0

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for r, c in self._terms:
            if r == 1:
                mag = str(abs(c))
            elif abs(c) == 1:
                mag = f"sqrt({r})"
            else:
                mag = f"{abs(c)}*sqrt({r})"
            if not parts:
                parts.append(mag if c > 0 else f"-{mag}")
            else:
                parts.append(("+ " if c > 0 else "- ") + mag)
        return " ".join(parts)

    def decimal_str(self, digits: int = 12) -> str:
        """Deterministic decimal rendering (round-to-nearest midpoint)."""
        if not self._terms:
            return "0"
        iv = self.refine(Fraction(1, 10 ** (digits + 2)))
        return fraction_decimal(iv.midpoint, digits)


def fraction_decimal(q: Fraction, digits: int) -> str:
    """Fixed-point decimal of a rational, rounded half-up, deterministic."""
    scaled = q * 10 ** digits
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator - n * scaled.denominator) >= scaled.denominator:
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}"
