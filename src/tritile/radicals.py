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
``!=`` decidable by pure rational arithmetic; they never refine.

Every expression is merged when it is built: ``+``, ``-``, ``*`` and
:meth:`LengthExpr.sum` merge their operands' canonical terms, scaled where
needed, so the canonical form is the form that merging at every step
gives (``(sqrt(2) - sqrt(2)) + sqrt(8)`` is ``sqrt(8)``), and an
expression holds no operand.  ``sign()`` is 0 for an empty form, else the
side of 0 of its first enclosure, at ``START_BITS`` and then doubling
precision, that excludes 0.  That terminates, however large the
coordinates are, because the value is then nonzero and the width shrinks
to 0.  The order comparisons ``<``, ``<=``, ``>`` and ``>=`` are the sign
of the difference.

Radicands are stored as rationals, for ``repr``, but the arithmetic runs
on integers: with r = n/d in lowest terms, sqrt(r) = sqrt(n*d)/d, so a
class test is one ``math.isqrt`` and an enclosure one integer sum.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: First precision used when refining an enclosure for a sign decision.
START_BITS = 64


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

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi


def _merge_terms(raw: Sequence[tuple[Fraction, Fraction]]) -> tuple[tuple[Fraction, Fraction], ...]:
    """Canonicalize a list of (radicand, coefficient) pairs.

    Radicands with a rational-square ratio join one class; the class keeps
    the smallest radicand seen as representative.  Perfect-square radicands
    fold into the rational class (radicand 1).  Zero coefficients drop out.
    With r = n/d in lowest terms, r is a square iff n*d is, and r/rep is
    iff n*d * m_rep is, where m_rep = n_rep*d_rep is kept with each class;
    then sqrt(r/rep) = isqrt(n*d * m_rep) * d_rep / (d * m_rep).
    """
    classes: list[list] = []  # [rep, m_rep, coeff]
    for r, c in raw:
        if not c or not r:
            continue
        n, d = r.numerator, r.denominator
        m = n * d
        s = math.isqrt(m)
        if s * s == m:
            r, c, n, d, m = ONE, c * Fraction(s, d), 1, 1, 1
        for cls in classes:
            rep, m_rep, _ = cls
            p = m * m_rep
            s = math.isqrt(p)
            if s * s != p:
                continue
            ratio = Fraction(s * rep.denominator, d * m_rep)  # sqrt(r / rep)
            if n * rep.denominator < rep.numerator * d:
                # shrink representative: sqrt(rep_old) = sqrt(rep_old/r)*sqrt(r)
                cls[:] = r, m, cls[2] / ratio + c
            else:
                cls[2] += c * ratio
            break
        else:
            classes.append([r, m, c])
    return tuple(sorted((r, c) for r, _, c in classes if c))


class LengthExpr:
    """Immutable exact sum of square roots of nonnegative rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[tuple[Fraction, Fraction]] = ()):
        """The sum of (radicand, coefficient) pairs of rationals, held as its
        canonical pairs, ``terms``, radicands ascending."""
        for r, c in terms:
            if c and r.numerator < 0:
                raise ValueError("negative radicand")
        object.__setattr__(self, "terms", _merge_terms(terms))

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
        """The sum of all of exprs, merged once (empty sum: zero)."""
        return cls([t for e in exprs for t in e.terms])

    def is_zero(self) -> bool:
        # canonical form is empty iff the represented real is zero
        return not self.terms

    def is_rational(self) -> Fraction | None:
        """The exact rational value, or None if irrational."""
        terms = self.terms
        if not terms:
            return ZERO
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return None

    def __add__(self, other: "LengthExpr") -> "LengthExpr":
        if not isinstance(other, LengthExpr):
            return NotImplemented
        return LengthExpr(self.terms + other.terms)

    def __sub__(self, other: "LengthExpr") -> "LengthExpr":
        if not isinstance(other, LengthExpr):
            return NotImplemented
        return LengthExpr(self.terms + tuple((r, -c) for r, c in other.terms))

    def __neg__(self) -> "LengthExpr":
        return self * -1

    def __mul__(self, k: Fraction | int) -> "LengthExpr":
        if not isinstance(k, (Fraction, int)):
            return NotImplemented
        return LengthExpr([(r, c * k) for r, c in self.terms])

    __rmul__ = __mul__

    def enclosure(self, bits: int) -> Interval:
        """Rational interval containing the exact value: the canonical terms'
        integer bounds (see :func:`_bounds`) over their denominator."""
        lo, hi, den = _bounds(self.terms, bits)
        return Interval(Fraction(lo, den), Fraction(hi, den))

    def refine_until(self, done: Callable[[Interval], bool],
                     start_bits: int = START_BITS) -> Interval:
        """First enclosure at start_bits, 2*start_bits, ... that `done`
        accepts; terminates if `done` accepts every narrow enough one."""
        bits = start_bits
        while not done(iv := self.enclosure(bits)):
            bits *= 2
        return iv

    def refine(self, max_width: Fraction) -> Interval:
        """Enclosure with width at most max_width (which must be positive)."""
        if max_width <= 0:
            raise ValueError("max_width must be positive")
        return self.refine_until(lambda iv: iv.width <= max_width)

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}: 0 for an empty canonical form, else
        the side of 0 of its first enclosure that excludes 0.  A nonempty
        form has a nonzero value (module docstring), so one does."""
        if not self.terms:
            return 0
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

    def _compare(self, other: object, op: Callable[[int, int], bool]) -> bool:
        """op(sign of self - other, 0), or NotImplemented for a non-LengthExpr."""
        if not isinstance(other, LengthExpr):
            return NotImplemented
        return op((self - other).sign(), 0)

    def __lt__(self, other: "LengthExpr") -> bool:
        return self._compare(other, operator.lt)

    def __le__(self, other: "LengthExpr") -> bool:
        return self._compare(other, operator.le)

    def __gt__(self, other: "LengthExpr") -> bool:
        return self._compare(other, operator.gt)

    def __ge__(self, other: "LengthExpr") -> bool:
        return self._compare(other, operator.ge)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for r, c in self.terms:
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
        if not self.terms:
            return "0"
        iv = self.refine(Fraction(1, 10 ** (digits + 2)))
        return fraction_decimal(iv.midpoint, digits)


def _bounds(terms: Sequence[tuple[Fraction, Fraction]], bits: int) -> tuple[int, int, int]:
    """Integers lo <= hi and den > 0 with sum(c*sqrt(r)) in [lo/den, hi/den].
    Term c*sqrt(n/d) lies between c*s/(d << bits) and c*(s+1)/(d << bits),
    on the first if exact, where s = isqrt(n*d << 2*bits); the bounds are
    summed as integers over D << bits, D the lcm of the terms'
    c.denominator*d."""
    ints = [(r.numerator * r.denominator, c.numerator, c.denominator * r.denominator)
            for r, c in terms]
    den = math.lcm(*(d for _, _, d in ints))
    lo = hi = 0
    for m, n, d in ints:
        k = n * (den // d)
        m <<= 2 * bits
        s = math.isqrt(m)
        lo += k * s
        hi += k * s
        if s * s != m:
            if k > 0:
                hi += k
            else:
                lo += k
    return lo, hi, den << bits


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
