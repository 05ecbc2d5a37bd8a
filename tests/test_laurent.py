import random

import pytest

from severi.laurent import (
    LaurentPoly1,
    LaurentPoly2,
    TruncatedSeries,
    expand_rational,
    lowest_a_part,
    one_minus_q_power,
    unknot_value,
)

from oracles import longdiv_series

q = LaurentPoly1.monomial(1)
one = LaurentPoly1.one()


def test_ring_identities():
    assert (one - q) * (one + q) == one - q * q
    assert (one + 3 * q) * LaurentPoly1.zero() == LaurentPoly1.zero()
    a_inv_minus_a = LaurentPoly2({(-1, 0): 1, (1, 0): -1})
    assert a_inv_minus_a * a_inv_minus_a == LaurentPoly2({(-2, 0): 1, (0, 0): -2, (2, 0): 1})


def test_canonical_form_drops_zeros():
    p = LaurentPoly1({3: 5, 1: 0, -2: 0})
    assert p.coeffs == {3: 5}
    assert LaurentPoly1({0: 1}) - one == LaurentPoly1.zero()


def _random_poly1(rng, span=4, size=4):
    return LaurentPoly1({rng.randint(-span, span): rng.randint(-5, 5) for _ in range(size)})


def _random_poly2(rng, span=3, size=4):
    return LaurentPoly2({(rng.randint(-span, span), rng.randint(-span, span)): rng.randint(-5, 5)
                         for _ in range(size)})


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        p, r, s = (_random_poly1(rng) for _ in range(3))
        assert (p + r) + s == p + (r + s)
        assert p * (r + s) == p * r + p * s
        assert p * r == r * p
        assert (p * r) * s == p * (r * s)
    for _ in range(100):
        p, r, s = (_random_poly2(rng) for _ in range(3))
        assert p * (r + s) == p * r + p * s
        assert (p * r) * s == p * (r * s)


def test_expand_rational_examples():
    assert expand_rational(one, [one - q, one - q * q], 4).coeffs == (1, 1, 2, 2, 3)
    assert expand_rational(one, [one - q], 3).coeffs == (1, 1, 1, 1)
    got = expand_rational(one - q + q ** 3, [one - q, one - q, one - q * q], 3)
    assert got.coeffs == (1, 1, 2, 3)
    # pinned against schoolbook long division
    assert list(got.coeffs) == longdiv_series([1, -1, 0, 1], [[1, -1], [1, -1], [1, 0, -1]], 3)


def test_expand_rational_matches_longdiv_random():
    rng = random.Random(11)
    pool = [[1, -1], [1, 0, -1], [1, 1], [1, -2, 1], [1, 0, 0, -1]]
    for _ in range(50):
        num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        dens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        order = rng.randint(0, 12)
        got = expand_rational(
            LaurentPoly1(dict(enumerate(num))),
            [LaurentPoly1(dict(enumerate(d))) for d in dens],
            order)
        assert list(got.coeffs) == longdiv_series(num, dens, order)


def test_expand_rational_truncation_consistency():
    num = one - q + q ** 3
    dens = [one - q, one - q, one - q * q]
    full = expand_rational(num, dens, 20)
    for shorter in (0, 3, 7, 19):
        assert expand_rational(num, dens, shorter) == full.truncate(shorter)


def test_expand_rational_rejects_bad_factors():
    with pytest.raises(ValueError):
        expand_rational(one, [q], 3)
    with pytest.raises(ValueError):
        expand_rational(one, [LaurentPoly1({-1: 1, 0: 1})], 3)
    with pytest.raises(ValueError):
        expand_rational(LaurentPoly1({-1: 1}), [one - q], 3)


def test_lowest_a_part_examples():
    assert lowest_a_part(LaurentPoly2({(3, 1): 1})) == (3, LaurentPoly1({1: 1}))
    assert lowest_a_part(LaurentPoly2({(-1, 0): 1, (1, 0): 1})) == (-1, one)
    # a^2 (2 - a^2 + z^2) times the circle value (a^-1 - a)/z
    trefoil_normalized = LaurentPoly2({(2, 0): 2, (4, 0): -1, (2, 2): 1})
    product = trefoil_normalized * unknot_value()
    a_exp, part = lowest_a_part(product)
    assert a_exp == 1
    assert part == LaurentPoly1({-1: 2, 1: 1})


def test_lowest_a_part_rejects_zero():
    with pytest.raises(ValueError):
        lowest_a_part(LaurentPoly2.zero())


def test_lowest_a_exponent_adds_on_positive_inputs():
    rng = random.Random(3)
    for _ in range(100):
        p = LaurentPoly2({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(1, 5)
                          for _ in range(rng.randint(1, 4))})
        r = LaurentPoly2({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(1, 5)
                          for _ in range(rng.randint(1, 4))})
        assert lowest_a_part(p * r)[0] == lowest_a_part(p)[0] + lowest_a_part(r)[0]


def test_divide_unknot_inverts_multiplication():
    rng = random.Random(5)
    for _ in range(60):
        p = _random_poly2(rng)
        assert (p * unknot_value()).divide_unknot() == p
    assert LaurentPoly2.zero().divide_unknot() == LaurentPoly2.zero()
    with pytest.raises(ValueError):
        LaurentPoly2.one().divide_unknot()


def test_negative_powers_rejected():
    with pytest.raises(ValueError):
        (one + q) ** -1
    with pytest.raises(ValueError):
        unknot_value() ** -2


def test_series_arithmetic_truncates_to_min_order():
    s = TruncatedSeries((1, 2, 3, 4))
    t = TruncatedSeries((1, 1))
    assert (s + t).order == 1
    assert (s * t).coeffs == (1, 3)
    assert s.truncate(2).coeffs == (1, 2, 3)
    with pytest.raises(ValueError):
        t.truncate(5)


def test_series_mul_poly_keeps_order():
    s = TruncatedSeries((1, 1, 1, 1))
    assert (s * one_minus_q_power(1, 3)).coeffs == (1, 0, 0, 0)
    assert (s * one_minus_q_power(2, 5)).coeffs == (1, -1, 0, 0)


def test_one_minus_q_power_both_signs():
    assert one_minus_q_power(2, 4).coeffs == (1, -2, 1, 0, 0)
    assert one_minus_q_power(-2, 4).coeffs == (1, 2, 3, 4, 5)
    assert one_minus_q_power(0, 2).coeffs == (1, 0, 0)
    product = one_minus_q_power(-3, 8) * one_minus_q_power(3, 8)
    assert product.coeffs == (1,) + (0,) * 8


def test_pretty_forms():
    assert LaurentPoly1({-1: 2, 1: 1}).pretty("z") == "2*z^-1 + z"
    assert LaurentPoly1({0: -1, 2: 3}).pretty() == "-1 + 3*q^2"
    assert LaurentPoly1.zero().pretty() == "0"
    assert LaurentPoly2({(2, 0): 1}).pretty() == "a^2*z^0"
    assert LaurentPoly2({(2, 0): 2, (4, 0): -1, (2, 2): 1}).pretty() == "2*a^2*z^0 + a^2*z^2 - a^4*z^0"


def test_json_forms():
    assert LaurentPoly1({-1: 2, 1: 1}).to_json() == [[-1, "2"], [1, "1"]]
    assert LaurentPoly2({(1, -1): 10 ** 30}).to_json() == [[1, -1, str(10 ** 30)]]
    assert TruncatedSeries((1, 2)).to_json() == {"order": 1, "coeffs": [1, 2]}


def test_big_integers_survive():
    p = LaurentPoly1({0: 10 ** 40, 1: 1})
    assert (p * p).coeff(0) == 10 ** 80
