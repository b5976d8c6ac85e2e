import doctest
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracle_blocks import oracle_add, oracle_mul
from ordsearch import ordinal
from ordsearch.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalParseError,
    cofinality,
    fundamental_sequence,
    omega_power,
    omega_quot_rem,
    zeta,
)

w = OMEGA
o = Ordinal.parse
fin = Ordinal.from_int


def sample_ordinal(rng: random.Random, exp_pool: list[Ordinal], max_terms: int = 4) -> Ordinal:
    """Random normal form with exponents drawn from exp_pool."""
    count = rng.randint(0, max_terms)
    exps = sorted(rng.sample(exp_pool, min(count, len(exp_pool))), reverse=True)
    return Ordinal(tuple((e, rng.randint(1, 9)) for e in exps))


def pool_below_omega_omega(limit: int = 7) -> list[Ordinal]:
    return [fin(i) for i in range(limit)]


def pool_below_omega_cubed(rng: random.Random, size: int = 40) -> list[Ordinal]:
    # exponents of exponents at most 2, so every pool member is below w^3
    pool = {ZERO, ONE, fin(2)}
    while len(pool) < size:
        pool.add(sample_ordinal(rng, [fin(2), ONE, ZERO], max_terms=3))
    return sorted(pool)


class TestCompare:
    def test_omega_above_finite(self):
        assert w > fin(3)
        assert not w <= fin(3)

    def test_equal(self):
        a, b = o("w*2+1"), o("w*2+1")
        assert a == b and a <= b and a >= b
        assert not (a < b or a > b or a != b)

    def test_leading_exponent_dominates(self):
        assert o("w^2") > o("w*5+7")

    def test_total_order_consistency(self):
        rng = random.Random(7)
        pool = pool_below_omega_cubed(rng)
        vals = [sample_ordinal(rng, pool) for _ in range(60)]
        for a in vals:
            for b in vals:
                # Exactly one of <, ==, > holds, and the operators agree.
                assert [a < b, a == b, a > b].count(True) == 1
                assert (a < b) == (b > a) == (not a >= b)
                assert (a <= b) == (b >= a) == (not a > b)
                assert (a != b) == (not a == b)

    @pytest.mark.parametrize("other", [3, 0, 3.0, "w"])
    def test_other_types_are_unordered_and_unequal(self, other):
        # Only __lt__ and __le__ are defined; > and >= reach them reflected,
        # so every ordering against another type must still raise.
        a = fin(3)
        for compare in (
            lambda: a < other, lambda: a <= other, lambda: a > other, lambda: a >= other,
            lambda: other < a, lambda: other <= a, lambda: other > a, lambda: other >= a,
        ):
            with pytest.raises(TypeError):
                compare()
        assert not a == other and not other == a
        assert a != other and other != a


class TestAdd:
    def test_left_absorption(self):
        assert ONE + w == w

    def test_successor(self):
        assert w + ONE == o("w+1")

    def test_mixed_sum(self):
        # expected value fixed by the block-presentation oracle
        a, b = o("w*2+3"), o("w+1")
        assert oracle_add(a, b) == o("w*3+1")
        assert a + b == o("w*3+1")

    def test_matches_block_oracle(self):
        rng = random.Random(11)
        pool = pool_below_omega_omega()
        for _ in range(500):
            a = sample_ordinal(rng, pool)
            b = sample_ordinal(rng, pool)
            assert a + b == oracle_add(a, b)

    def test_identity(self):
        a = o("w^2*3+4")
        assert a + ZERO == a
        assert ZERO + a == a


class TestMul:
    def test_zero(self):
        assert w * ZERO == ZERO

    def test_finite_left_factor_absorbed(self):
        assert fin(2) * w == w

    def test_lex_product(self):
        a, b = o("w*2"), w
        assert oracle_mul(a, b) == o("w^2")
        assert a * b == o("w^2")

    def test_matches_block_oracle(self):
        rng = random.Random(13)
        pool = pool_below_omega_omega()
        for _ in range(500):
            a = sample_ordinal(rng, pool)
            b = sample_ordinal(rng, pool)
            assert a * b == oracle_mul(a, b)

    def test_one_identity(self):
        a = o("w^3+w*2+5")
        assert a * ONE == a
        assert ONE * a == a


ordinals_small = st.builds(
    lambda seed: sample_ordinal(random.Random(seed), pool_below_omega_cubed(random.Random(seed ^ 0x5EED))),
    st.integers(0, 10_000),
)


@settings(max_examples=200, deadline=None)
@given(ordinals_small, ordinals_small, ordinals_small)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=200, deadline=None)
@given(ordinals_small, ordinals_small, ordinals_small)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=200, deadline=None)
@given(ordinals_small, ordinals_small, ordinals_small)
def test_mul_left_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


class TestOmegaPower:
    def test_zero(self):
        assert omega_power(ZERO) == ONE

    def test_one(self):
        assert omega_power(ONE) == w

    def test_omega(self):
        assert omega_power(w) == o("w^w")

    def test_single_term(self):
        e = o("w+2")
        p = omega_power(e)
        assert len(p.terms) == 1 and p.terms[0] == (e, 1)


class TestOmegaQuotRem:
    def test_forced_by_uniqueness(self):
        assert omega_quot_rem(o("w+5")) == (ONE, 5)

    def test_finite(self):
        assert omega_quot_rem(fin(7)) == (ZERO, 7)

    def test_remultiplies(self):
        a = o("w^2*3+w*4+2")
        beta, n = omega_quot_rem(a)
        assert beta == o("w*3+4") and n == 2
        assert w * beta + fin(n) == a

    def test_round_trip_random(self):
        rng = random.Random(17)
        pool = pool_below_omega_cubed(rng)
        for _ in range(300):
            a = sample_ordinal(rng, pool)
            beta, n = omega_quot_rem(a)
            assert 0 <= n
            assert w * beta + fin(n) == a


class TestZeta:
    def test_finite_fixed(self):
        assert zeta(fin(5)) == fin(5)

    def test_omega_fixed(self):
        assert zeta(w) == w

    def test_omega_plus_one(self):
        assert zeta(o("w+1")) == o("w*2")

    def test_omega_times_two(self):
        assert zeta(o("w*2")) == o("w^2")

    def test_weakly_monotone(self):
        rng = random.Random(19)
        pool = pool_below_omega_cubed(rng)
        for _ in range(400):
            a = sample_ordinal(rng, pool)
            b = sample_ordinal(rng, pool)
            if a <= b:
                assert zeta(a) <= zeta(b)
            else:
                assert zeta(b) <= zeta(a)

    def test_sum_bound(self):
        # a = 0 is degenerate (zeta(0) = 0, no nonempty left part to bound)
        rng = random.Random(23)
        pool = pool_below_omega_cubed(rng)
        for _ in range(400):
            a = sample_ordinal(rng, pool)
            c = sample_ordinal(rng, pool)
            if a.is_zero:
                a = ONE
            assert zeta(a + c) <= zeta(a) * zeta(ONE + c)

    def test_product_identity_at_limits(self):
        rng = random.Random(29)
        pool = pool_below_omega_cubed(rng)
        checked = 0
        for _ in range(2000):
            a = sample_ordinal(rng, pool)
            if cofinality(a) != w:
                continue
            nu = sample_ordinal(rng, pool)
            assert zeta(a + nu) == zeta(a) * zeta(ONE + nu)
            checked += 1
        assert checked > 100

    def test_limit_continuity(self):
        rng = random.Random(31)
        pool = pool_below_omega_cubed(rng)
        slack = 8
        depth = 10
        checked = 0
        for _ in range(600):
            beta = sample_ordinal(rng, pool)
            if not beta.is_limit:
                continue
            values = [zeta(fundamental_sequence(beta, i)) for i in range(depth + slack + 1)]
            zb = zeta(beta)
            for i, v in enumerate(values):
                assert v < zb
                if i:
                    assert values[i - 1] < v
            for j in range(depth):
                target = fundamental_sequence(zb, j)
                assert any(target <= values[i] for i in range(j + slack + 1))
            checked += 1
        assert checked > 50


class TestCofinality:
    def test_zero(self):
        assert cofinality(ZERO) == ZERO

    def test_successor(self):
        assert cofinality(o("w+3")) == ONE

    def test_limit(self):
        assert cofinality(o("w^2")) == w


class TestFundamentalSequence:
    def test_omega(self):
        assert fundamental_sequence(w, 3) == fin(3)

    def test_last_limit_term_unwinds(self):
        assert fundamental_sequence(o("w*2"), 4) == o("w+4")

    def test_exponent_unwinds(self):
        assert fundamental_sequence(o("w^2"), 5) == o("w*5")

    def test_rejects_non_limit(self):
        with pytest.raises(ValueError):
            fundamental_sequence(o("w+1"), 2)
        with pytest.raises(ValueError):
            fundamental_sequence(ZERO, 0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="^index must be >= 0$"):
            fundamental_sequence(w, -1)

    def test_strictly_increasing_below_limit(self):
        rng = random.Random(37)
        pool = pool_below_omega_cubed(rng)
        for _ in range(300):
            a = sample_ordinal(rng, pool)
            if not a.is_limit:
                continue
            seq = [fundamental_sequence(a, i) for i in range(8)]
            for i in range(1, len(seq)):
                assert seq[i - 1] < seq[i] < a


class TestText:
    def test_grammar_case(self):
        a = o("w^2*3+w+4")
        assert a.terms == ((fin(2), 3), (ONE, 1), (ZERO, 4))

    def test_zero(self):
        assert o("0") == ZERO
        assert str(ZERO) == "0"

    def test_round_trip_random(self):
        rng = random.Random(41)
        pool = pool_below_omega_cubed(rng)
        for _ in range(300):
            a = sample_ordinal(rng, pool)
            assert Ordinal.parse(str(a)) == a

    def test_canonicalizes_redundant_markers(self):
        assert str(o("w^1*1")) == "w"
        assert str(o("w^(w)")) == "w^w"

    def test_nested_exponent_formatting(self):
        a = omega_power(o("w*2"))
        assert str(a) == "w^(w*2)"
        assert Ordinal.parse(str(a)) == a

    @pytest.mark.parametrize(
        "text",
        ["", "w+w", "w+0", "w*0", "w^", "1+2", "w^2+w^3", "(w)", "w 1", "w++1", "3+w", "w^(w"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(OrdinalParseError):
            Ordinal.parse(text)

    def test_error_carries_position(self):
        with pytest.raises(OrdinalParseError) as exc:
            Ordinal.parse("w^2+w^3")
        assert exc.value.position == 4

    @pytest.mark.parametrize(
        "text, position",
        [
            ("w^\u00b2", 2),  # a superscript digit passes str.isdigit()
            ("w*\u00b2", 2),
            ("\u00b2", 0),
            ("w^3*" + "9" * 5000, 4),  # beyond int()'s digit limit
            ("1" * 5000, 0),
        ],
        ids=["superscript-exponent", "superscript-coefficient", "superscript-term",
             "long-coefficient", "long-term"],
    )
    def test_bad_numerals_carry_position(self, text, position):
        with pytest.raises(OrdinalParseError) as exc:
            Ordinal.parse(text)
        assert exc.value.position == position


class TestConstruction:
    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            Ordinal(((ONE, 0),))

    def test_rejects_unordered_exponents(self):
        with pytest.raises(ValueError):
            Ordinal(((ONE, 1), (fin(2), 1)))

    def test_unique_representation(self):
        assert o("w*2+1") == w * fin(2) + ONE
        assert hash(o("w*2+1")) == hash(w * fin(2) + ONE)

    def test_rejects_non_ordinal_exponent(self):
        with pytest.raises(TypeError, match="exponent must be an Ordinal"):
            Ordinal(((1, 1),))

    def test_is_immutable(self):
        with pytest.raises(AttributeError, match="immutable"):
            w.terms = ()

    def test_from_int_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            fin(-1)

    def test_to_int_rejects_infinite(self):
        with pytest.raises(ValueError, match="^w is infinite$"):
            w.to_int()

    def test_only_zero_is_false(self):
        assert not ZERO
        assert ONE and w

    @pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
    def test_int_operand_is_type_error(self, op):
        # No mixed arithmetic: an int must be lifted with from_int first.
        with pytest.raises(TypeError):
            op(w, 1)


def test_docstring_examples():
    failed, attempted = doctest.testmod(ordinal)
    assert (failed, attempted) == (0, 3)
