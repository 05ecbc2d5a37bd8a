import pytest
from hypothesis import given, strategies as st

import severi.staircase as staircase_mod
from severi.staircase import (
    ADEType,
    BoxConstraint,
    ade_closed_formula,
    ade_closed_vector,
    ade_nh,
    all_types,
    count_staircases,
    germ_data,
    model_series,
)

from oracles import count_partitions_avoiding, partitions

A_BOXES = {(0, 2)}
D_BOXES = {(1, 2)}
E_BOXES = {(0, 3)}


def test_count_examples():
    # pinned via the partition oracle: partitions of 3 into at most two
    # rows are (3) and (2,1); the xy^2 box (1,2) excludes nothing at n=3
    assert count_staircases(3, BoxConstraint.for_model("A")).coeffs == (1, 1, 2, 2)
    assert count_partitions_avoiding(3, A_BOXES) == 2
    for family in "ADE":
        assert count_staircases(0, BoxConstraint.for_model(family)).coeffs == (1,)
    assert count_staircases(3, BoxConstraint.for_model("D")).coeffs == (1, 1, 2, 3)
    assert count_partitions_avoiding(3, D_BOXES) == 3


def oracle_counts(order, boxes):
    return tuple(count_partitions_avoiding(n, boxes) for n in range(order + 1))


def test_count_matches_oracle():
    for family, boxes in (("A", A_BOXES), ("D", D_BOXES), ("E", E_BOXES)):
        constraint = BoxConstraint.for_model(family)
        assert count_staircases(12, constraint).coeffs == oracle_counts(12, boxes)


def test_generic_constraint():
    # the node's own equation: box (1,1) forbidden, staircases are hooks
    hooks = BoxConstraint(frozenset({(1, 1)}))
    assert count_staircases(8, hooks).coeffs == (1, 1, 2, 3, 4, 5, 6, 7, 8)
    # two boxes at once
    both = BoxConstraint(frozenset({(0, 2), (2, 0)}))
    assert count_staircases(8, both).coeffs == oracle_counts(8, {(0, 2), (2, 0)})
    # no box at all: plain partitions
    assert count_staircases(10, BoxConstraint(frozenset())).coeffs == oracle_counts(10, set())


@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3))
def test_count_matches_oracle_on_random_boxes(boxes):
    assert count_staircases(14, BoxConstraint(frozenset(boxes))).coeffs == oracle_counts(14, boxes)


def test_model_series_examples():
    assert model_series("A", 5).coeffs == (1, 1, 2, 2, 3, 3)
    assert model_series("E", 5).coeffs == (1, 1, 2, 3, 4, 5)
    assert model_series("D", 5).coeffs == (1, 1, 2, 3, 5, 7)
    # partitions into at most two and three parts, brute force
    assert model_series("A", 8).coeffs == tuple(
        sum(1 for p in partitions(n) if len(p) <= 2) for n in range(9))
    assert model_series("E", 8).coeffs == tuple(
        sum(1 for p in partitions(n) if len(p) <= 3) for n in range(9))


def test_enumeration_equals_closed_form():
    # order 1100 once overflowed the interpreter stack for the xy^2 model
    for family in "ADE":
        constraint = BoxConstraint.for_model(family)
        for order in (16, 1100):
            assert count_staircases(order, constraint) == model_series(family, order)


def test_delta_branch_table():
    expected = {
        "A1": (1, 2), "A2": (1, 1), "A3": (2, 2), "A4": (2, 1),
        "D4": (3, 3), "D5": (3, 2), "D6": (4, 3), "D7": (4, 2),
        "E6": (3, 1), "E7": (4, 2), "E8": (4, 1),
    }
    for label, (delta, branches) in expected.items():
        t = ADEType.parse(label)
        assert (t.delta, t.branches) == (delta, branches)
        assert t.milnor == t.index == 2 * t.delta + 1 - t.branches


def test_broken_delta_branch_table_raises(monkeypatch):
    monkeypatch.setitem(staircase_mod._E_DELTA_BRANCHES, 6, (3, 2))
    with pytest.raises(ValueError, match="mu = 2\\*delta"):
        ADEType("E", 6)


def test_ade_nh_tables():
    assert ade_nh(ADEType.parse("E6")).values == (5, 10, 6, 1)
    assert ade_nh(ADEType.parse("E7")).values == (2, 11, 15, 7, 1)
    assert ade_nh(ADEType.parse("E8")).values == (7, 21, 21, 8, 1)
    assert ade_nh(ADEType.parse("A1")).values == (1, 1)
    assert ade_nh(ADEType.parse("A2")).values == (2, 1)
    assert ade_nh(ADEType.parse("D4")).values == (1, 3, 4, 1)


def test_closed_formula_examples():
    assert ade_closed_formula(ADEType.parse("A3"), 1) == 3
    assert ade_closed_formula(ADEType.parse("E8"), 4) == 1
    assert ade_closed_vector(ADEType.parse("D4")).values == (1, 3, 4, 1)
    assert ade_closed_vector(ADEType.parse("D5")).values == (2, 6, 5, 1)
    with pytest.raises(ValueError):
        ade_closed_formula(ADEType.parse("A3"), 3)
    with pytest.raises(ValueError):
        ade_closed_formula(ADEType.parse("E6"), -1)


def test_truncation_equals_closed_formula_everywhere():
    for t in all_types(12):
        assert ade_nh(t) == ade_closed_vector(t)
        assert ade_nh(t).values[-1] == 1


def test_germ_data_consistency():
    for t in all_types(12):
        g = germ_data(t)
        assert g.delta == t.delta and g.branches == t.branches
        assert g.milnor == t.index
        assert g.hilb.order == t.delta and g.hilb[0] == 1


def test_labels():
    assert ADEType.parse("e6") == ADEType("E", 6)
    assert ADEType.parse("D_5") == ADEType("D", 5)
    for bad in ("A0", "D3", "E9", "B2", "E", "12", "Ax"):
        with pytest.raises(ValueError):
            ADEType.parse(bad)
    with pytest.raises(ValueError):
        ADEType("D", 2)


def test_staircase_validation():
    with pytest.raises(ValueError):
        BoxConstraint(frozenset({(-1, 0)}))
    with pytest.raises(ValueError):
        BoxConstraint.for_model("X")
    with pytest.raises(ValueError):
        count_staircases(-1, BoxConstraint.for_model("A"))


def test_all_types_inventory():
    names = [t.name for t in all_types(12)]
    assert len(names) == len(set(names)) == 24
    assert names[0] == "A1" and "D12" in names and "E8" in names
