"""Acceptance criteria, one test per criterion.

Every check is exact integer equality.  Each test prints a single
summary line; run with `pytest tests/test_acceptance.py -s` to see all
of them.  Stated runtime ceilings are asserted too.
"""

import math
import random
import time

from severi.braid import (
    BraidWord,
    iter_admissible,
    jaeger_homfly,
    parse_braid,
    pinf_positive,
)
from severi.dynkin import dynkin_diagram, dynkin_nh, independence_counts
from severi.genus_transform import (
    LocalGermData,
    NhVector,
    combine_local,
    local_degree_bound_ok,
    nh_from_series,
    series_from_nh,
)
from severi.laurent import LaurentPoly1, LaurentPoly2, TruncatedSeries
from severi.models import catalog, conjecture_check, predicted_pinf
from severi.staircase import (
    ADEType,
    BoxConstraint,
    ade_closed_vector,
    ade_nh,
    all_types,
    count_staircases,
    model_series,
)

from oracles import independence_profile_bitmask


def _report(name, elapsed, limit=None):
    bound = "" if limit is None else f" (limit {limit}s)"
    print(f"PASS  {name}: {elapsed:.2f}s{bound}")


def test_c01_ade_tables():
    start = time.perf_counter()
    expected_e = {
        "E6": (5, 10, 6, 1),
        "E7": (2, 11, 15, 7, 1),
        "E8": (7, 21, 21, 8, 1),
    }
    for label, values in expected_e.items():
        t = ADEType.parse(label)
        assert ade_nh(t).values == values
        assert ade_closed_vector(t).values == values
    for t in all_types(12):
        assert ade_nh(t) == ade_closed_vector(t)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 1: ADE tables by truncation and closed formulas", elapsed, 1)


def test_c02_model_series_to_order_30():
    start = time.perf_counter()
    for family in "ADE":
        constraint = BoxConstraint.for_model(family)
        assert count_staircases(30, constraint) == model_series(family, 30)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("criterion 2: staircase counts equal closed forms to order 30", elapsed, 5)


def test_c03_dynkin_cross_check():
    start = time.perf_counter()
    for t in all_types(12):
        assert dynkin_nh(t) == ade_nh(t)
    diagrams = [ADEType("A", n) for n in range(1, 17)]
    diagrams += [ADEType("D", n) for n in range(4, 17)]
    diagrams += [ADEType("E", n) for n in (6, 7, 8)]
    for t in diagrams:
        g = dynkin_diagram(t)
        assert g.vertices <= 16
        assert list(independence_counts(g)) == independence_profile_bitmask(g.vertices, g.edges)
    elapsed = time.perf_counter() - start
    _report("criterion 3: diagram counts equal series route and brute force", elapsed)


def test_c04_trefoil():
    start = time.perf_counter()
    word = parse_braid("1 1 1", 2)
    value = jaeger_homfly(word)
    assert value.normalized == LaurentPoly2({(2, 0): 2, (2, 2): 1, (4, 0): -1})
    _, part = value.pinf()
    assert part == LaurentPoly1({-1: 2, 1: 1})
    assert sum(1 for _ in iter_admissible(word)) == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 4: trefoil polynomial, lowest part, admissible count", elapsed, 1)


def test_c05_t34():
    start = time.perf_counter()
    result = pinf_positive(parse_braid("(1 2)^4", 3))
    assert result.counts == (1, 6, 10, 5)
    expected = predicted_pinf(ade_nh(ADEType.parse("E6")), 1)
    assert result.poly == expected == LaurentPoly1({-1: 5, 1: 10, 3: 6, 5: 1})
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 5: (3,4) torus knot counts and lowest part", elapsed, 1)


def test_c06_e8_prediction():
    start = time.perf_counter()
    result = pinf_positive(parse_braid("(1 2)^5", 3))
    assert result.poly == LaurentPoly1({-1: 7, 1: 21, 3: 21, 5: 8, 7: 1})
    assert result.poly == predicted_pinf(ade_nh(ADEType.parse("E8")), 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion 6: E8 state sum equals its multiplicity table", elapsed, 10)


def test_c07_a_family_sweep():
    start = time.perf_counter()
    for n in range(1, 11):
        model = next(m for m in catalog() if m.name == f"A{n}")
        report = conjecture_check(model)
        assert report.ok, f"A{n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion 7: two-strand family matches its binomial tables", elapsed, 30)


def test_c08_transform_properties():
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(500):
        g = rng.randint(0, 8)
        order = g + rng.randint(0, 5)
        series = TruncatedSeries([rng.randint(-9, 9) for _ in range(order + 1)])
        nh = nh_from_series(series, g)
        assert series_from_nh(nh, order) == series
        if g >= 1:
            assert nh.n(g) == series[0]
            assert nh.n(g - 1) == series[1] + (2 * g - 2) * series[0]
    node = NhVector("local", 0, (1, 1))
    for g in range(0, 11):
        for g_tilde in range(0, g + 1):
            k = g - g_tilde
            nh = combine_local(g_tilde, [node] * k)
            for h in range(0, g + 1):
                assert nh.n(h) == (math.comb(k, g - h) if h >= g_tilde else 0)
    elapsed = time.perf_counter() - start
    _report("criterion 8: round trips, triangularity, nodal binomials", elapsed)


def test_c09_markov_invariance():
    start = time.perf_counter()
    rng = random.Random(31415)
    for _ in range(100):
        strands = rng.randint(2, 3)
        length = rng.randint(1, 10)
        word = BraidWord(strands, tuple(
            (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)))
        base = jaeger_homfly(word).multiple_of_unknot
        rotated = word.rotated(rng.randint(0, length))
        assert jaeger_homfly(rotated).multiple_of_unknot == base
        cancel = word.with_cancel_pair(rng.randint(1, strands - 1))
        assert jaeger_homfly(cancel).multiple_of_unknot == base
        assert jaeger_homfly(word.stabilized()).multiple_of_unknot == base
    elapsed = time.perf_counter() - start
    _report("criterion 9: conjugation, cancellation, stabilization", elapsed)


def test_c10_degree_bound():
    start = time.perf_counter()
    for model in catalog():
        order = 2 * model.delta + 5
        series = series_from_nh(model.local_nh(), order, branches=model.branches)
        assert series.truncate(model.delta) == model_series(model.ade.family, model.delta)
        assert local_degree_bound_ok(LocalGermData(model.delta, model.branches, series))
    elapsed = time.perf_counter() - start
    _report("criterion 10: germ series close into degree-2*delta polynomials", elapsed)
