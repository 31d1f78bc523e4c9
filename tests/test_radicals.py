import math
import random
from fractions import Fraction

import pytest

from tritile import Interval, LengthExpr, Point, RecursiveSplitSpec, gen_recursive_split, radicals
from tritile.geometry import sq_dist
from tritile.radicals import fraction_decimal

from conftest import conjugate_product, expr_decimal

F = Fraction
P = Point.of


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

    @pytest.mark.parametrize("a, b", [
        (LengthExpr.rational(F(7, 3)), LengthExpr.rational(F(7, 3))),  # zero-width enclosures
        (sq(20), sq(5, 2)),  # overlapping enclosures, one value
    ])
    def test_equal_values_at_the_filter_edge(self, a, b):
        for x, y in ((a, a), (a, b), (b, a)):
            assert not x < y and not x > y
            assert x <= y and x >= y

    def test_disjoint_enclosures_skip_the_difference(self):
        """Disjoint values settle every order, both ways round."""
        for a, b in ((sq(2), sq(3)), (sq(2), LengthExpr.rational(2))):
            assert a < b and a <= b and b > a and b >= a
            assert not (b < a or b <= a or a > b or a >= b)

    def test_order_against_a_non_length_is_a_type_error(self):
        with pytest.raises(TypeError):
            sq(2) < 1
        with pytest.raises(TypeError):
            1 >= sq(2)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(sq(2))


class TestEnclosures:
    def test_sqrt_enclosure_brackets_value(self):
        iv = sq(2).enclosure(40)
        d = expr_decimal(sq(2))
        assert Fraction(iv.lo) <= Fraction(str(d)) <= Fraction(iv.hi)
        assert iv.width <= F(1, 2 ** 40)

    def test_exact_square_has_zero_width(self):
        iv = sq(F(9, 4)).enclosure(10)
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


def _random_expr(rng: random.Random) -> LengthExpr:
    e = LengthExpr.rational(F(rng.randint(-6, 6), rng.randint(1, 4)))
    for _ in range(rng.randint(1, 4)):
        r = F(rng.randint(1, 30))
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        e = e + LengthExpr.sqrt(r, c)
    return e


# Plain-Fraction oracles: the canonical form and the enclosure computed
# with rational square roots and per-term interval sums, independently of
# the library's integer class tests and integer enclosure sums.

def oracle_rational_sqrt(q: Fraction) -> Fraction | None:
    """sqrt(q) if q is the square of a rational, else None."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return F(rn, rd)


def oracle_merge_terms(raw):
    """Canonical terms: square-ratio classes, smallest radicand seen as
    representative, perfect squares folded into radicand 1."""
    classes = []  # [rep, coeff]
    for r, c in raw:
        if c == 0 or r == 0:
            continue
        s = oracle_rational_sqrt(r)
        if s is not None:
            r, c = F(1), c * s
        for cls in classes:
            ratio = oracle_rational_sqrt(r / cls[0])
            if ratio is None:
                continue
            if r < cls[0]:
                cls[1] = cls[1] / ratio + c
                cls[0] = r
            else:
                cls[1] += c * ratio
            break
        else:
            classes.append([r, c])
    return tuple(sorted((r, c) for r, c in classes if c != 0))


def oracle_enclosure(terms, bits: int) -> tuple[Fraction, Fraction]:
    """Sum of per-term intervals: sqrt(r) bracketed by isqrt(n*d << 2*bits)
    over d << bits (closed at +1 unless exact), scaled by c, added up."""
    lo = hi = F(0)
    for r, c in terms:
        scaled = r.numerator * r.denominator << (2 * bits)
        s = math.isqrt(scaled)
        den = r.denominator << bits
        a, b = F(s, den), F(s + (s * s != scaled), den)
        a, b = (a * c, b * c) if c >= 0 else (b * c, a * c)
        lo, hi = lo + a, hi + b
    return lo, hi


def _recursive_squares() -> list[Fraction]:
    """Squared side lengths of a depth-40 recursive split with t = 7/3:
    numerators of up to 65 digits, denominators of up to 23."""
    spec = RecursiveSplitSpec((P(F(1, 3), 0), P(F(5, 2), F(1, 7)), P(0, F(9, 4))), F(7, 3), 40)
    return [sq_dist(p, q) for t in gen_recursive_split(spec).tiles for p, q in t.sides()]


def _oracle_cases(rng: random.Random) -> list[list[tuple[Fraction, Fraction]]]:
    """Seeded raw term lists from five families; each list appears alone
    and together with a negated copy of itself, which cancels it."""
    def coeff():
        return F(rng.randint(-50, 50), rng.randint(1, 60))

    def square():
        return F(rng.randint(1, 40), rng.randint(1, 40)) ** 2

    squares = _recursive_squares()
    families = {
        "rational": lambda: [(F(rng.randint(1, 10 ** 7), rng.randint(1, 10 ** 6)), coeff())
                             for _ in range(rng.randint(1, 6))],
        "square": lambda: [(square(), coeff()) for _ in range(rng.randint(1, 4))],
        "square-ratio": lambda: [(rng.choice((F(2), F(8), F(1, 2), F(9, 2), F(18, 49))) * square(),
                                  coeff()) for _ in range(rng.randint(1, 6))],
        "mixed": lambda: [(rng.choice((F(3), F(5, 7), F(12), F(20, 63))) * square()
                           if rng.random() < 0.7 else square(), coeff())
                          for _ in range(rng.randint(1, 8))],
        "recursive": lambda: [(rng.choice(squares), coeff()) for _ in range(rng.randint(1, 6))],
    }
    cases = []
    for make in families.values():
        for _ in range(60):
            raw = make()
            cases.append(raw)
            # the same value written with other radicands of its classes,
            # negated: the sum is zero
            k = F(rng.randint(1, 9), rng.randint(1, 9))
            cancel = [(r * k * k, -c / k) for r, c in raw]
            rng.shuffle(cancel)
            cases.append(raw + cancel)
    cases += [[(r, coeff())] for r in squares[:20]]
    # tight-stretch cancellation: one side as long as seven collinear
    # copies of another
    lo, hi = squares[0], squares[0] * 49
    cases.append([(hi, F(1)), (lo, F(-7))])
    return cases


class TestIntegerArithmeticOracles:
    """The integer class test and integer enclosure sum agree exactly with
    the plain-Fraction oracles above."""

    def test_terms_and_enclosures_match_fraction_oracles(self):
        cases = _oracle_cases(random.Random(20171))
        assert len(cases) >= 500
        zero = shrunk = 0
        for raw in cases:
            e = LengthExpr(raw)
            assert e.terms == oracle_merge_terms(raw), raw
            zero += e.is_zero()
            # a class whose representative is not its first radicand shrank
            shrunk += any(next(r0 for r0, c in raw if c and oracle_rational_sqrt(r0 / r)) != r
                          for r, _ in e.terms if r != 1)
            for bits in (8, 64, 256, 1024):
                iv = e.enclosure(bits)
                assert (iv.lo, iv.hi) == oracle_enclosure(e.terms, bits), (raw, bits)
        assert zero >= 300 and shrunk >= 40

    def test_enclosure_of_exact_and_negative_terms(self):
        assert LengthExpr().enclosure(8) == Interval(F(0), F(0))
        e = LengthExpr([(F(9, 49), F(-2)), (F(1, 2), F(-3, 5)), (F(18, 49), F(7, 11))])
        for bits in (8, 64):
            iv = e.enclosure(bits)
            assert (iv.lo, iv.hi) == oracle_enclosure(e.terms, bits)
            assert iv.lo < iv.hi


class EagerLengthExpr:
    """LengthExpr as it was before the canonical form was deferred: every
    +, -, * and sum merges at once.  Built on the plain-Fraction oracles
    above, so it shares neither the library's class test nor its bounds."""

    def __init__(self, raw):
        self.terms = oracle_merge_terms(raw)

    @classmethod
    def sqrt(cls, r, c=1):
        return cls([(F(r), F(c))])

    @classmethod
    def rational(cls, c):
        return cls([(F(1), F(c))])

    @classmethod
    def sum(cls, exprs):
        return cls([t for e in exprs for t in e.terms])

    def __add__(self, other):
        return EagerLengthExpr(self.terms + other.terms)

    def __sub__(self, other):
        return EagerLengthExpr(self.terms + tuple((r, -c) for r, c in other.terms))

    def __mul__(self, k):
        return EagerLengthExpr([(r, c * k) for r, c in self.terms])

    def enclosure(self, bits):
        return Interval(*oracle_enclosure(self.terms, bits))

    def _refined(self, done):
        bits = 64
        while not done(iv := self.enclosure(bits)):
            bits *= 2
        return iv

    def sign(self):
        if not self.terms:
            return 0
        return 1 if self._refined(lambda iv: iv.lo > 0 or iv.hi < 0).lo > 0 else -1

    def is_zero(self):
        return not self.terms

    def is_rational(self):
        if not self.terms:
            return F(0)
        return self.terms[0][1] if len(self.terms) == 1 and self.terms[0][0] == 1 else None

    def __eq__(self, other):
        return (self - other).is_zero()

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __repr__(self):
        out = []
        for r, c in self.terms:
            mag = str(abs(c)) if r == 1 else f"sqrt({r})" if abs(c) == 1 else f"{abs(c)}*sqrt({r})"
            sign = ("" if c > 0 else "-") if not out else ("+ " if c > 0 else "- ")
            out.append(sign + mag)
        return " ".join(out) or "0"

    def decimal_str(self, digits=12):
        if not self.terms:
            return "0"
        iv = self._refined(lambda iv: iv.width <= F(1, 10 ** (digits + 2)))
        return fraction_decimal(iv.midpoint, digits)


#: radicands of a few square-ratio classes (2, 8, 18, 1/2; 3, 12, 3/4; 5,
#: 20), perfect squares and 0
_RADICANDS = (F(2), F(8), F(18), F(1, 2), F(3), F(12), F(3, 4), F(5), F(20),
              F(9), F(1, 4), F(0), F(7))
_MULTIPLIERS = (0, 1, -1, 2, F(1, 3), F(-3, 2))


def _random_recipe(rng: random.Random, pool: list, depth: int):
    """A random expression tree: ("sqrt", r, c), ("rational", c), ("+", a,
    b), ("-", a, b), ("*", a, k) or ("sum", [a, ...]).  Subtrees are drawn
    from `pool` too, so trees share them, and `a - a` cancels to zero."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.8:
            recipe = ("sqrt", rng.choice(_RADICANDS), F(rng.randint(-4, 4), rng.randint(1, 3)))
        else:
            recipe = ("rational", F(rng.randint(-5, 5), rng.randint(1, 4)))
    else:
        def sub():
            if pool and rng.random() < 0.3:
                return rng.choice(pool)
            return _random_recipe(rng, pool, depth - 1)
        op = rng.choice(("+", "-", "-", "*", "sum", "cancel"))
        if op == "*":
            recipe = ("*", sub(), rng.choice(_MULTIPLIERS))
        elif op == "sum":
            recipe = ("sum", [sub() for _ in range(rng.randint(0, 4))])
        elif op == "cancel":
            a = sub()
            recipe = ("+", ("-", a, a), sub())
        else:
            recipe = (op, sub(), sub())
    pool.append(recipe)
    return recipe


def _build(recipe, cls, memo: dict, read_terms=None):
    """recipe evaluated with cls, each shared subtree once; read_terms(e),
    if given, is called on every node built (to merge some early)."""
    if id(recipe) in memo:
        return memo[id(recipe)]
    op = recipe[0]
    if op == "sqrt":
        e = cls.sqrt(recipe[1], recipe[2])
    elif op == "rational":
        e = cls.rational(recipe[1])
    elif op == "sum":
        e = cls.sum([_build(r, cls, memo, read_terms) for r in recipe[1]])
    elif op == "*":
        e = _build(recipe[1], cls, memo, read_terms) * recipe[2]
    else:
        a, b = (_build(r, cls, memo, read_terms) for r in recipe[1:])
        e = a + b if op == "+" else a - b
    if read_terms is not None:
        read_terms(e)
    memo[id(recipe)] = e
    return e


class TestDeferredCanonicalForm:
    """The canonical form when built: each expression merges its operands'
    forms at once, so every observable agrees with the eager oracle, in any
    reading order.  (The class keeps its name so that its test ids stay stable.)"""

    def test_cancelled_operand_keeps_its_radicand(self):
        assert repr((sq(2) - sq(2)) + sq(8)) == "sqrt(8)"
        assert repr(LengthExpr.sum([sq(3) + sq(2) - sq(2), sq(8)])) == "sqrt(3) + sqrt(8)"
        assert (sq(2) - sq(2)) + sq(8) == sq(2, 2)

    def test_negative_radicand_rejected_when_built(self):
        with pytest.raises(ValueError):
            LengthExpr([(F(-1), F(1))])
        assert LengthExpr([(F(-1), F(0))]).is_zero()

    def test_built_form_holds_no_operand(self):
        e = sq(2) + sq(8)
        assert LengthExpr.__slots__ == ("terms",) and e.terms == ((F(2), F(3)),)
        assert e.sign() == 1
        assert repr(e) == "3*sqrt(2)"

    def test_sign_settled_by_bounds_builds_nothing(self):
        e = LengthExpr.sum([sq(3), sq(12), LengthExpr.rational(-1)])
        assert e.sign() == 1 and e < LengthExpr.rational(6)

    def test_comparison_merges_each_operand_once(self, monkeypatch):
        """Both operands were merged when built, so a comparison merges
        only its new difference node."""
        x, y = sq(2) + sq(8), sq(3) + sq(5)
        assert y < x
        merged = []
        merge = radicals._merge_terms
        monkeypatch.setattr(radicals, "_merge_terms", lambda raw: merged.append(raw) or merge(raw))
        assert y < x
        assert len(merged) == 1

    def test_shared_operands_do_not_blow_up(self):
        e = sq(2) - sq(2)
        for _ in range(60):
            e = e + e
        assert e.sign() == 0 and (e + sq(3)).sign() == 1

    def test_deep_chain_within_the_recursion_limit(self):
        total = LengthExpr()
        for i in range(5000):
            total = total + sq(i % 7)
        assert LengthExpr.rational(7000) < total < LengthExpr.rational(8000)
        assert total.terms[0][0] == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_eager_oracle(self, seed):
        rng = random.Random(seed)
        pool: list = []
        recipes = [_random_recipe(rng, pool, rng.randint(1, 5)) for _ in range(60)]
        zero = 0
        for i, recipe in enumerate(recipes):
            other = recipes[i - 1]
            eager, eager_other = (_build(r, EagerLengthExpr, {}) for r in (recipe, other))
            # 1: order first, on unmerged trees; 2: some nodes merged while
            # built; 3: canonical form read before anything else
            fresh = {}
            lazy, lazy_other = (_build(r, LengthExpr, fresh) for r in (recipe, other))
            assert (lazy.sign(), lazy < lazy_other, lazy <= lazy_other,
                    lazy > lazy_other, lazy >= lazy_other) == \
                (eager.sign(), eager < eager_other, eager <= eager_other,
                 eager > eager_other, eager >= eager_other)
            early = {}
            merged, _ = (_build(r, LengthExpr, early, lambda e: rng.random() < 0.4 and e.terms)
                         for r in (recipe, other))
            for e in (lazy, merged, _build(recipe, LengthExpr, {})):
                assert repr(e) == repr(eager)
                assert e.terms == eager.terms
                assert (e == lazy_other) == (eager == eager_other)
                assert (e.sign(), e < lazy_other, e <= lazy_other,
                        e > lazy_other, e >= lazy_other) == \
                    (eager.sign(), eager < eager_other, eager <= eager_other,
                     eager > eager_other, eager >= eager_other)
                assert (e.is_zero(), e.is_rational()) == (eager.is_zero(), eager.is_rational())
                assert e.enclosure(64) == eager.enclosure(64)
                assert e.decimal_str() == eager.decimal_str()
            zero += eager.is_zero()
        assert zero >= 3
