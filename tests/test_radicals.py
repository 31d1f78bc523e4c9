import random
from fractions import Fraction

import pytest

from tritile import Interval, LengthExpr
from tritile.radicals import fraction_decimal, rational_sqrt, sqrt_enclosure

from conftest import conjugate_product, expr_decimal

F = Fraction


def sq(r, c=1):
    return LengthExpr.sqrt(F(r), F(c))


class TestCanonicalForm:
    def test_square_ratio_radicands_merge(self):
        assert (sq(2) + sq(8)).terms == ((F(2), F(3)),)

    def test_smaller_radicand_becomes_representative(self):
        assert (sq(8) + sq(2)).terms == ((F(2), F(3)),)

    def test_perfect_square_folds_into_rational_part(self):
        assert (sq(9) + sq(F(1, 4))).terms == ((F(1), F(7, 2)),)

    def test_zero_coefficient_and_zero_radicand_drop(self):
        assert sq(5, 0).terms == ()
        assert sq(0, 7).terms == ()

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            sq(-2)

    def test_is_rational(self):
        assert (sq(2) - sq(2)).is_rational() == 0
        assert LengthExpr.rational(F(5, 3)).is_rational() == F(5, 3)
        assert sq(2).is_rational() is None


class TestCompare:
    def test_equal_sums_of_dependent_radicals(self):
        # sqrt(2) + sqrt(8) = 3*sqrt(2) = sqrt(18)
        assert sq(2) + sq(8) == sq(18)

    def test_sqrt2_below_three_halves(self):
        assert sq(2) < LengthExpr.rational(F(3, 2))

    def test_close_sums_resolved_exactly(self):
        # sqrt(10)+sqrt(18) = 7.4049... < sqrt(16)+sqrt(12) = 7.4641...
        lhs, rhs = sq(10) + sq(18), sq(16) + sq(12)
        assert expr_decimal(lhs) < expr_decimal(rhs)
        assert lhs < rhs

    def test_multiplicatively_dependent_but_linearly_independent(self):
        # 2*sqrt(2) + sqrt(8) is 4*sqrt(2), not zero, even though flipping
        # sqrt(8) alone would cancel it
        e = sq(2, 2) + sq(8)
        assert not e.is_zero()
        assert e == sq(2, 4)

    def test_reflexive_equality(self, rng):
        for _ in range(30):
            e = _random_expr(rng)
            assert e == e and e <= e and e >= e
            assert not (e < e or e > e)

    def test_antisymmetry_and_decimal_agreement(self, rng):
        for _ in range(40):
            e1, e2 = _random_expr(rng), _random_expr(rng)
            lt, gt, eq = e1 < e2, e1 > e2, e1 == e2
            assert (e2 > e1, e2 < e1, e2 == e1) == (lt, gt, eq)
            assert lt + gt + eq == 1
            d1, d2 = expr_decimal(e1), expr_decimal(e2)
            if eq:
                assert abs(d1 - d2) < Fraction(1, 10 ** 60)
            else:
                assert (d1 < d2) == lt

    def test_transitive_on_sorted_sample(self, rng):
        exprs = [_random_expr(rng) for _ in range(12)]
        exprs.sort(key=expr_decimal)
        for a, b in zip(exprs, exprs[1:]):
            assert a <= b

    def test_conjugate_norm_oracle_on_zero(self, rng):
        for _ in range(25):
            e = _random_expr(rng)
            d = e - e
            assert d.is_zero()
            assert conjugate_product(d) == 0

    def test_nonzero_matches_sign_oracle(self, rng):
        for _ in range(25):
            e = _random_expr(rng)
            if e.is_zero():
                continue
            assert (expr_decimal(e) > 0) == (e.sign() > 0)


class TestSum:
    def test_empty_sum_is_zero(self):
        assert LengthExpr.sum([]).terms == ()

    def test_single_sum_keeps_terms(self, rng):
        for _ in range(20):
            e = _random_expr(rng)
            assert LengthExpr.sum([e]).terms == e.terms

    def test_matches_chained_addition(self, rng):
        cancelled = 0
        for _ in range(60):
            exprs = [_random_expr(rng) for _ in range(rng.randint(0, 6))]
            if exprs and rng.random() < 0.3:
                exprs.append(-exprs[0])
            chained = LengthExpr()
            for e in exprs:
                chained = chained + e
            assert LengthExpr.sum(exprs) == chained
            cancelled += len(exprs) > 1 and exprs[-1] == -exprs[0]
        assert cancelled >= 5


class TestHugeMagnitudes:
    """sqrt(n^2 + 1) - n is about 1/(2n): with n = 2^4200 its sign needs
    more than 4096 bits of precision."""

    N = 2 ** 4200

    def test_sign_needs_more_than_4096_bits(self):
        n = self.N
        assert (LengthExpr.sqrt(n * n + 1) - LengthExpr.rational(n)).sign() == 1
        assert (LengthExpr.rational(n) - LengthExpr.sqrt(n * n + 1)).sign() == -1

    def test_compare_tiny_gap(self):
        n = self.N
        assert LengthExpr.sqrt(n * n + 1) > LengthExpr.rational(n)

    def test_refine_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            sq(2).refine(F(0))


class TestRichComparisons:
    def test_value_equality_across_forms(self):
        assert sq(18) == sq(2, 3)
        assert sq(8) + sq(2) == sq(18)
        assert sq(3) != sq(2)

    def test_ordering_operators(self):
        assert sq(2) < sq(3)
        assert sq(3) > sq(2)
        assert sq(2) <= sq(8, 1) - sq(2)
        assert LengthExpr.rational(0) >= LengthExpr()

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(sq(2))


class TestEnclosures:
    def test_sqrt_enclosure_brackets_value(self):
        iv = sqrt_enclosure(F(2), 40)
        d = expr_decimal(sq(2))
        assert Fraction(iv.lo) <= Fraction(str(d)) <= Fraction(iv.hi)
        assert iv.width <= F(1, 2 ** 40)

    def test_exact_square_has_zero_width(self):
        iv = sqrt_enclosure(F(9, 4), 10)
        assert iv.lo == iv.hi == F(3, 2)

    def test_refine_reaches_width(self, rng):
        for _ in range(10):
            e = _random_expr(rng)
            iv = e.refine(F(1, 10 ** 30))
            assert iv.width <= F(1, 10 ** 30)
            d = expr_decimal(e)
            assert Fraction(iv.lo) <= Fraction(str(d)) + F(1, 10 ** 60)
            assert Fraction(str(d)) <= Fraction(iv.hi) + F(1, 10 ** 60)

    def test_interval_invariants(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))
        iv = Interval(F(1), F(2)) + Interval(F(-1), F(1))
        assert (iv.lo, iv.hi) == (F(0), F(3))
        assert Interval(F(1), F(2)).scale(F(-2)) == Interval(F(-4), F(-2))


class TestRendering:
    def test_repr_deterministic(self):
        e = sq(10) + sq(2) + sq(8) - LengthExpr.rational(4)
        assert repr(e) == "-4 + 3*sqrt(2) + sqrt(10)"
        assert repr(sq(2) - sq(18)) == "-2*sqrt(2)"

    def test_decimal_str(self):
        assert sq(2).decimal_str(6) == "1.414214"
        assert (sq(2) - sq(2)).decimal_str() == "0"
        assert (-sq(2)).decimal_str(4) == "-1.4142"

    def test_fraction_decimal_rounds_half_up(self):
        assert fraction_decimal(F(1, 8), 2) == "0.13"
        assert fraction_decimal(F(-1, 8), 2) == "-0.12"
        assert fraction_decimal(F(7, 2), 1) == "3.5"

    def test_rational_sqrt(self):
        assert rational_sqrt(F(9, 16)) == F(3, 4)
        assert rational_sqrt(F(2)) is None
        assert rational_sqrt(F(-4)) is None


def _random_expr(rng: random.Random) -> LengthExpr:
    e = LengthExpr.rational(F(rng.randint(-6, 6), rng.randint(1, 4)))
    for _ in range(rng.randint(1, 4)):
        r = F(rng.randint(1, 30))
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        e = e + LengthExpr.sqrt(r, c)
    return e
