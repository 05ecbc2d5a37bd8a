import random

import pytest

from severi.braid import (
    BraidWord,
    CircuitPartition,
    EnumerationBudgetError,
    closure_components,
    is_admissible,
    iter_admissible,
    jaeger_homfly,
    markov_checks,
    milnor_from_braid,
    parse_braid,
    pinf_positive,
    trace_encounters,
)
from severi.laurent import LaurentPoly1, LaurentPoly2, lowest_a_part, unknot_value

from oracles import brute_state_sum, homfly_from_table

TREFOIL = parse_braid("1 1 1", 2)
T34 = parse_braid("(1 2)^4", 3)


def random_word(rng, max_strands=4, max_len=10, positive=False):
    strands = rng.randint(2, max_strands)
    length = rng.randint(1, max_len)
    letters = tuple((rng.randint(1, strands - 1), 1 if positive else rng.choice((1, -1)))
                    for _ in range(length))
    return BraidWord(strands, letters)


# ---------------------------------------------------------------- parsing

def test_parse_examples():
    assert T34.letters == ((1, 1), (2, 1)) * 4
    assert TREFOIL.letters == ((1, 1),) * 3
    assert parse_braid("-1 1", 2).letters == ((1, -1), (1, 1))
    assert parse_braid("", 1).letters == ()
    assert parse_braid("((1)^2 2)^2", 3).letters == ((1, 1), (1, 1), (2, 1)) * 2


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_braid("3", 3)           # index out of range
    with pytest.raises(ValueError):
        parse_braid("0", 3)
    with pytest.raises(ValueError):
        parse_braid("(1 2)", 3)       # group without repetition
    with pytest.raises(ValueError):
        parse_braid("(1 2)^", 3)
    with pytest.raises(ValueError):
        parse_braid("(1 2)^x", 3)
    with pytest.raises(ValueError):
        parse_braid("()^2", 3)        # empty group
    with pytest.raises(ValueError):
        parse_braid("(1 2", 3)
    with pytest.raises(ValueError):
        parse_braid("1 )", 3)
    with pytest.raises(ValueError):
        parse_braid("1 ^ 2", 3)


def test_word_validation_and_helpers():
    with pytest.raises(ValueError):
        BraidWord(2, ((2, 1),))
    with pytest.raises(ValueError):
        BraidWord(2, ((1, 2),))
    with pytest.raises(ValueError):
        BraidWord(0, ())
    assert TREFOIL.writhe == 3 and len(TREFOIL) == 3
    assert parse_braid("-1 1", 2).writhe == 0
    assert TREFOIL.text() == "1 1 1"
    assert parse_braid("-1 2", 3).text() == "-1 2"
    assert TREFOIL.rotated(1) == TREFOIL
    mixed = parse_braid("1 2 -1", 3)
    assert mixed.rotated(1).letters == ((2, 1), (1, -1), (1, 1))
    assert mixed.stabilized().strands == 4
    assert mixed.stabilized().letters[-1] == (3, 1)
    assert mixed.with_cancel_pair(2).letters[-2:] == ((2, 1), (2, -1))
    assert mixed.inserted(1, (2, -1)).letters == ((1, 1), (2, -1), (2, 1), (1, -1))


# ------------------------------------------------------------- closures

def test_closure_components():
    assert closure_components(BraidWord(3, ())) == 3
    assert closure_components(TREFOIL) == 1
    assert closure_components(T34) == 1
    assert closure_components(parse_braid("1 1", 2)) == 2


# ---------------------------------------------------------------- traces

def test_trace_all_removed():
    p = CircuitPartition(TREFOIL, (False, False, False))
    assert trace_encounters(p) == ((1, 2), (1, 2), (1, 2))
    assert is_admissible(p)


def test_trace_middle_removed():
    p = CircuitPartition(TREFOIL, (True, False, True))
    pairs = trace_encounters(p)
    assert pairs[1] == (2, 1)
    assert not is_admissible(p)


def test_trace_single_kept_crossing():
    p = CircuitPartition(BraidWord(2, ((1, 1),)), (True,))
    assert trace_encounters(p) == ((1, 2),)
    assert p.components() == 1


def test_every_letter_met_twice():
    rng = random.Random(13)
    for _ in range(50):
        word = random_word(rng, max_len=8)
        mask = rng.randrange(1 << len(word))
        p = CircuitPartition.from_mask(word, mask)
        for i, (first, second) in enumerate(trace_encounters(p)):
            idx = word.letters[i][0]
            assert {first, second} == {idx, idx + 1}


def test_admissible_set_of_trefoil():
    kept_sets = {p.kept for p in iter_admissible(TREFOIL)}
    assert kept_sets == {
        (False, False, False),
        (False, False, True),
        (True, True, False),
        (False, True, True),
        (True, True, True),
    }


def test_all_kept_always_admissible():
    rng = random.Random(17)
    for _ in range(30):
        word = random_word(rng, max_len=8)
        assert is_admissible(CircuitPartition(word, (True,) * len(word)))


def test_admissible_partitions_match_oracle():
    rng = random.Random(11)
    for _ in range(40):
        word = random_word(rng, max_len=7)
        table = brute_state_sum(word.strands, word.letters)
        assert sum(1 for _ in iter_admissible(word)) == sum(table.values())


def test_partition_permutation_and_components():
    p = CircuitPartition(T34, (True,) * 8)
    assert p.components() == 1
    q = CircuitPartition(T34, (False,) * 8)
    assert q.permutation() == (0, 1, 2, 3)
    assert q.components() == 3
    with pytest.raises(ValueError):
        CircuitPartition(TREFOIL, (True,))


# -------------------------------------------------------------- state sum

def test_trefoil_value():
    value = jaeger_homfly(TREFOIL)
    assert value.normalized == LaurentPoly2({(2, 0): 2, (2, 2): 1, (4, 0): -1})
    assert value.multiple_of_unknot == value.normalized * unknot_value()
    a_exp, part = value.pinf()
    assert a_exp == 1
    assert part == LaurentPoly1({-1: 2, 1: 1})


def test_unknot_value():
    value = jaeger_homfly(BraidWord(1, ()))
    assert value.normalized == LaurentPoly2.one()
    assert value.multiple_of_unknot == unknot_value()


def test_single_crossing_closures_are_unknots():
    for sign in (1, -1):
        value = jaeger_homfly(BraidWord(2, ((1, sign),)))
        assert value.normalized == LaurentPoly2.one()


def test_left_trefoil_is_mirror():
    left = jaeger_homfly(parse_braid("-1 -1 -1", 2)).normalized
    assert left == LaurentPoly2({(-2, 0): 2, (-2, 2): 1, (-4, 0): -1})


def test_state_sum_matches_oracle():
    rng = random.Random(53)
    for _ in range(300):
        strands = rng.randint(1, 6)
        length = rng.randint(0, 11) if strands > 1 else 0
        word = BraidWord(strands, tuple((rng.randint(1, strands - 1), rng.choice((1, -1)))
                                        for _ in range(length)))
        expected = homfly_from_table(strands, word.writhe, brute_state_sum(strands, word.letters))
        assert jaeger_homfly(word).multiple_of_unknot.coeffs == expected, word.text()


def test_pinf_counts_match_oracle():
    rng = random.Random(59)
    for _ in range(300):
        word = random_word(rng, max_strands=5, max_len=13, positive=True)
        counts = pinf_positive(word).counts
        expected = [0] * len(counts)
        for (removed, _parity, components), count in brute_state_sum(
                word.strands, word.letters).items():
            if components == word.strands:
                expected[(len(word) - removed) // 2] += count
        assert counts == tuple(expected), word.text()


def test_pinf_long_torus_knot():
    # T(6, 7): 35 letters, far past the default budget; the lowest
    # coefficient is the rational Catalan number binom(13, 6) / 13.
    result = pinf_positive(parse_braid("(1 2 3 4 5)^7", 6), budget=48)
    assert result.counts[0] == 1
    assert result.poly.coeff(-1) == 132


def test_pinf_positive_examples():
    tre = pinf_positive(TREFOIL)
    assert tre.counts == (1, 2)
    assert tre.poly == LaurentPoly1({-1: 2, 1: 1})

    t34 = pinf_positive(T34)
    assert t34.counts == (1, 6, 10, 5)
    assert t34.poly == LaurentPoly1({-1: 5, 1: 10, 3: 6, 5: 1})

    hopf = pinf_positive(parse_braid("1 1", 2))
    assert hopf.counts == (1, 1)
    assert hopf.poly == LaurentPoly1({-2: 1, 0: 1})


def test_pinf_requires_positive():
    with pytest.raises(ValueError):
        pinf_positive(parse_braid("-1", 2))


def test_pinf_equals_lowest_a_part():
    rng = random.Random(19)
    words = [TREFOIL, T34, parse_braid("(1 2)^5", 3), parse_braid("(1 2 3)^3", 4)]
    words += [random_word(rng, positive=True, max_len=8) for _ in range(20)]
    for word in words:
        full = jaeger_homfly(word)
        a_exp, part = lowest_a_part(full.multiple_of_unknot)
        fast = pinf_positive(word)
        assert part == fast.poly
        assert a_exp == word.writhe - word.strands


def test_pinf_coefficients_nonnegative():
    rng = random.Random(29)
    for _ in range(30):
        word = random_word(rng, positive=True, max_len=9)
        assert all(c >= 0 for c in pinf_positive(word).poly.coeffs.values())


def test_count_identities():
    # counts[1] = w - n + 1 needs every generator to occur in the word,
    # which holds for all singularity-link presentations; a generator
    # that never occurs splits off an unknot and lowers the count.
    rng = random.Random(37)
    for _ in range(30):
        strands = rng.randint(2, 4)
        length = rng.randint(strands - 1, 9)
        indices = list(range(1, strands)) + [rng.randint(1, strands - 1)
                                             for _ in range(length - strands + 1)]
        rng.shuffle(indices)
        word = BraidWord(strands, tuple((i, 1) for i in indices))
        counts = pinf_positive(word).counts
        assert counts[0] == 1
        expected = word.writhe - word.strands + 1
        if expected > 0:
            assert counts[1] == expected
        else:
            assert len(counts) == 1


def test_count_identity_skips_missing_generators():
    word = BraidWord(4, ((1, 1), (1, 1)))
    counts = pinf_positive(word).counts
    assert counts == (1, 1)  # w minus the one distinct index present


def test_markov_moves_examples():
    report = markov_checks(TREFOIL)
    assert report == {"rotation": True, "cancel_pair": True, "stabilization": True, "ok": True}
    assert jaeger_homfly(TREFOIL.rotated(2)).multiple_of_unknot == \
        jaeger_homfly(TREFOIL).multiple_of_unknot
    stabilized = TREFOIL.stabilized()
    assert jaeger_homfly(stabilized).multiple_of_unknot == \
        jaeger_homfly(TREFOIL).multiple_of_unknot


def test_markov_moves_random():
    rng = random.Random(41)
    for _ in range(25):
        word = random_word(rng, max_strands=3, max_len=7)
        assert markov_checks(word)["ok"]


def test_stabilization_preserves_positive_counts():
    rng = random.Random(43)
    for _ in range(15):
        word = random_word(rng, positive=True, max_len=8)
        base = pinf_positive(word)
        stab = pinf_positive(word.stabilized())
        assert base.counts == stab.counts
        assert base.writhe - base.strands == stab.writhe - stab.strands


def test_skein_relation():
    rng = random.Random(47)
    z = LaurentPoly2.monomial(0, 1)
    a = LaurentPoly2.monomial(1, 0)
    a_inv = LaurentPoly2.monomial(-1, 0)
    for _ in range(20):
        word = random_word(rng, max_strands=3, max_len=6)
        slot = rng.randint(0, len(word))
        index = rng.randint(1, word.strands - 1)
        plus = jaeger_homfly(word.inserted(slot, (index, 1))).multiple_of_unknot
        minus = jaeger_homfly(word.inserted(slot, (index, -1))).multiple_of_unknot
        zero = jaeger_homfly(word).multiple_of_unknot
        assert a_inv * plus - a * minus == z * zero


def test_milnor_from_braid():
    tre = milnor_from_braid(TREFOIL)
    assert tre.mu == 2 and tre.delta(1) == 1
    assert tre.is_singularity_candidate

    t34 = milnor_from_braid(T34)
    assert t34.mu == 6 and t34.delta(1) == 3

    trivial = milnor_from_braid(BraidWord(3, ()))
    assert trivial.mu == -2
    assert not trivial.is_singularity_candidate

    hopf = milnor_from_braid(parse_braid("1 1", 2))
    assert hopf.delta(2) == 1
    with pytest.raises(ValueError):
        hopf.delta(1)
    with pytest.raises(ValueError):
        milnor_from_braid(parse_braid("-1", 2))


def test_budget_guard():
    long_word = BraidWord(2, ((1, 1),) * 27)
    with pytest.raises(EnumerationBudgetError):
        jaeger_homfly(long_word)
    with pytest.raises(EnumerationBudgetError):
        pinf_positive(long_word)
    with pytest.raises(EnumerationBudgetError):
        jaeger_homfly(TREFOIL, budget=2)
    assert jaeger_homfly(TREFOIL, budget=3).normalized is not None
