import math
import random

import pytest
from hypothesis import given, strategies as st

from severi.genus_transform import (
    GlobalCurveData,
    LocalGermData,
    NhVector,
    check_low_vanishing,
    combine_local,
    hilb_from_locals,
    identity_checks,
    local_degree_bound_ok,
    nh_from_series,
    nh_from_series_global,
    nh_from_series_local,
    nh_from_series_local_raw,
    series_from_nh,
)
from severi.laurent import TruncatedSeries, one_minus_q_power
from severi.staircase import all_types, germ_data, model_series

NODE = NhVector("local", 0, (1, 1))
CUSP = NhVector("local", 0, (2, 1))


def node_germ(order):
    return LocalGermData(1, 2, series_from_nh(NODE, order, branches=2))


def cusp_germ(order):
    return LocalGermData(1, 1, series_from_nh(CUSP, order, branches=1))


def test_smooth_curves():
    # smooth proper curve of genus g: Euler series (1-q)^(2g-2), single
    # multiplicity at the top
    for g in range(0, 6):
        hilb = one_minus_q_power(2 * g - 2, g + 3)
        nh = nh_from_series_global(GlobalCurveData(g, g, hilb))
        assert nh.as_map() == {g: 1}


def test_rational_nodal_and_cuspidal_cubics():
    nodal = hilb_from_locals(0, [node_germ(6)], 6)
    assert nodal.coeffs == (1, 1, 2, 3, 4, 5, 6)
    nh = nh_from_series(nodal, 1)
    assert nh.as_map() == {1: 1, 0: 1}

    cuspidal = hilb_from_locals(0, [cusp_germ(6)], 6)
    assert cuspidal.coeffs == (1, 2, 4, 6, 8, 10, 12)
    nh = nh_from_series(cuspidal, 1)
    assert nh.as_map() == {1: 1, 0: 2}


def test_local_examples():
    assert nh_from_series_local_raw(TruncatedSeries((1, 1)), 1, 2) == NODE
    assert nh_from_series_local_raw(TruncatedSeries((1, 1)), 1, 1) == CUSP
    smooth = nh_from_series_local(LocalGermData(0, 1, TruncatedSeries((1,))))
    assert smooth.values == (1,)


def test_series_from_nh_examples():
    nodal = series_from_nh(NhVector("global", 0, (1, 1)), 6)
    assert nodal.coeffs == (1, 1, 2, 3, 4, 5, 6)
    assert nh_from_series(nodal, 1) == NhVector("global", 0, (1, 1))

    for g in (1, 3):
        single_top = series_from_nh(NhVector("global", g, (1,)), g + 4)
        assert single_top == one_minus_q_power(2 * g - 2, g + 4)

    e6 = series_from_nh(NhVector("local", 0, (5, 10, 6, 1)), 3, branches=1)
    assert e6 == model_series("E", 3)


def test_local_inverse_round_trip_catalog():
    for t in all_types(9):
        germ = germ_data(t)
        nh = nh_from_series_local(germ)
        assert series_from_nh(nh, t.delta, branches=t.branches) == germ.hilb
        assert nh.values[-1] == 1


def test_combine_examples():
    g_tilde = 0
    for k in range(0, 8):
        nh = combine_local(g_tilde, [NODE] * k)
        g = k
        for h in range(0, g + 1):
            assert nh.n(h) == math.comb(k, g - h)
    assert combine_local(0, [CUSP]) == CUSP
    assert combine_local(3, []).as_map() == {3: 1}


def test_combine_matches_series_route():
    # convolution of local vectors must agree with transforming the
    # assembled global series
    germs = [node_germ(8), cusp_germ(8)]
    vectors = [NODE, CUSP]
    for g_tilde in (0, 1, 2):
        combined = combine_local(g_tilde, vectors)
        hilb = hilb_from_locals(g_tilde, germs, 8)
        g = g_tilde + 2
        assert nh_from_series(hilb, g) == combined


def test_combine_commutative_associative():
    rng = random.Random(23)
    vs = [NhVector("local", 0, tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3))) + (1,))
          for _ in range(3)]
    a, b, c = vs
    assert combine_local(0, [a, b]) == combine_local(0, [b, a])
    assert combine_local(0, [a, b, c]) == combine_local(0, [c, b, a])
    inner = combine_local(0, [a, b])
    as_local = NhVector("local", 0, inner.values)
    assert combine_local(0, [as_local, c]) == combine_local(0, [a, b, c])


def test_round_trip_random_series():
    rng = random.Random(101)
    for _ in range(300):
        g = rng.randint(0, 8)
        order = g + rng.randint(0, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(order + 1)]
        series = TruncatedSeries(coeffs)
        nh = nh_from_series(series, g)
        assert series_from_nh(nh, order) == series


@given(st.integers(0, 8), st.lists(st.integers(-50, 50), min_size=1, max_size=13),
       st.integers(0, 3))
def test_global_vector_round_trip(genus, values, extra):
    # the vector may reach below h = 0, as arbitrary series make it do
    nh = NhVector("global", genus + 1 - len(values), tuple(values))
    order = max(genus - nh.low, genus) + extra
    assert nh_from_series(series_from_nh(nh, order), nh.high) == nh


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8), st.integers(1, 5),
       st.integers(0, 3))
def test_local_vector_round_trip(values, branches, extra):
    nh = NhVector("local", 0, tuple(values))
    series = series_from_nh(nh, nh.high + extra, branches)
    assert nh_from_series_local_raw(series, nh.high, branches).values == nh.values


def test_triangularity():
    rng = random.Random(55)
    for _ in range(200):
        g = rng.randint(1, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(g + 2)]
        nh = nh_from_series(TruncatedSeries(coeffs), g)
        assert nh.n(g) == coeffs[0]
        assert nh.n(g - 1) == coeffs[1] + (2 * g - 2) * coeffs[0]


def test_negative_entries_exposed_not_dropped():
    # a series that forces weight below zero: genus 0 with two terms
    series = TruncatedSeries((1, 0))
    nh = nh_from_series(series, 0)
    assert nh.low == -1
    assert nh.values == (-2, 1)
    assert series_from_nh(nh, 1) == series


def test_insufficient_order_is_hard_error():
    with pytest.raises(ValueError):
        nh_from_series(TruncatedSeries((1, 2)), 3)
    with pytest.raises(ValueError):
        nh_from_series_local_raw(TruncatedSeries((1,)), 1, 2)


def test_check_low_vanishing_examples():
    nodal = hilb_from_locals(0, [node_germ(8)], 8)
    assert check_low_vanishing(nodal, 1) == (True, 1)
    cuspidal = hilb_from_locals(0, [cusp_germ(8)], 8)
    assert check_low_vanishing(cuspidal, 1) == (True, 2)
    smooth_genus1 = one_minus_q_power(0, 6)
    assert check_low_vanishing(smooth_genus1, 1) == (True, 0)
    # smooth rational curve: f_d = d + 1, slope c = 1
    assert check_low_vanishing(one_minus_q_power(-2, 6), 0) == (True, 1)


def test_check_low_vanishing_detects_failure():
    nodal = hilb_from_locals(0, [node_germ(8)], 8)
    broken = list(nodal.coeffs)
    broken[5] += 1
    ok, _ = check_low_vanishing(TruncatedSeries(broken), 1)
    assert not ok


def test_identity_checks():
    cuspidal = hilb_from_locals(0, [cusp_germ(5)], 5)
    report = identity_checks(GlobalCurveData(1, 0, cuspidal), 2)
    assert report["ok"] and report["n_subtop"] == 2

    nodal = hilb_from_locals(0, [node_germ(5)], 5)
    report = identity_checks(GlobalCurveData(1, 0, nodal), 1)
    assert report["ok"] and report["n_subtop"] == 1

    for g in (2, 4):
        hilb = one_minus_q_power(2 * g - 2, g + 1)
        report = identity_checks(GlobalCurveData(g, g, hilb), 2 - 2 * g)
        assert report["ok"] and report["n_subtop"] == 0

    report = identity_checks(GlobalCurveData(1, 0, nodal), 5)
    assert not report["ok"]


def test_local_degree_bound_on_catalog():
    # The germ's series agrees with the model series only through order
    # delta; past that it is continued by the defining identity.  The
    # continued series times (1-q)^b must close up into a polynomial of
    # degree at most 2*delta, and the model series itself must not.
    from severi.staircase import ade_nh

    for t in all_types(12):
        order = 2 * t.delta + 5
        germ_series = series_from_nh(ade_nh(t), order, branches=t.branches)
        assert germ_series.truncate(t.delta) == model_series(t.family, t.delta)
        data = LocalGermData(t.delta, t.branches, germ_series)
        assert local_degree_bound_ok(data)
        model_data = LocalGermData(t.delta, t.branches, model_series(t.family, order))
        assert not local_degree_bound_ok(model_data)


def test_nh_vector_semantics():
    assert NhVector("global", 0, (0, 1, 1)) == NhVector("global", 1, (1, 1))
    assert NhVector("local", 0, (1, 1)) == NhVector("global", 0, (1, 1))
    assert NhVector("local", 0, (1, 1)) != NhVector("local", 0, (2, 1))
    v = NhVector("global", 2, (4, 0, 1))
    assert v.high == 4 and v.n(2) == 4 and v.n(3) == 0 and v.n(99) == 0
    assert v.to_json() == {"kind": "global", "low": 2, "values": [4, 0, 1]}
    with pytest.raises(ValueError):
        NhVector("local", 1, (1,))
    with pytest.raises(ValueError):
        NhVector("weird", 0, (1,))


def test_data_validation():
    with pytest.raises(ValueError):
        GlobalCurveData(2, 3, one_minus_q_power(2, 4))
    with pytest.raises(ValueError):
        GlobalCurveData(2, 0, TruncatedSeries((2, 1, 1)))
    with pytest.raises(ValueError):
        LocalGermData(1, 0, TruncatedSeries((1, 1)))
    for branches in (0, -1):
        with pytest.raises(ValueError, match="a germ has at least one branch"):
            nh_from_series_local_raw(TruncatedSeries((1, 1, 2)), 2, branches)
        with pytest.raises(ValueError, match="a germ has at least one branch"):
            series_from_nh(CUSP, 3, branches)
    assert LocalGermData(1, 2, TruncatedSeries((1, 1))).milnor == 1
    assert LocalGermData(1, 1, TruncatedSeries((1, 1))).milnor == 2
