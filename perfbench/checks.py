"""Independent checks of every CLI output.

Each check reads the JSON the CLI printed and confirms it by a route
other than the one the CLI took: the full state sum for the lowest-a
fast path, exact evaluation at z = a^-1 - a for HOMFLY values, the
rational Catalan number for torus knots, plain-integer series
multiplication for closed forms, the three ADE routes against each
other, and the inverse transforms for `transform` and `combine`.
A failed check raises CheckFailed with a one-line reason.

    python3 perfbench/checks.py --workload NAME --seed N --outputs FILE

checks the outputs worker.py wrote for that workload and seed, in a
process of its own after the timed run; run.py starts it with the same
pinned environment as the worker.  It prints one JSON line: the ids of
the items that failed and the first reasons.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from severi.braid import BraidWord, jaeger_homfly
from severi.dynkin import dynkin_nh
from severi.genus_transform import (LocalGermData, NhVector, hilb_from_locals, nh_from_series,
                                    series_from_nh)
from severi.laurent import TruncatedSeries
from severi.staircase import ADEType, ade_closed_vector, ade_nh, model_series

from workloads import WORKLOADS

# Points a at which the normalized HOMFLY value must equal 1 when
# z = a^-1 - a; two points make an accidental match implausible.
HOMFLY_POINTS = (Fraction(2), Fraction(3, 7))

# Numerator and denominator factors of each model's closed form, as
# ascending coefficient lists.
MODEL_FORMS = {
    "A": ([1], [[1, -1], [1, 0, -1]]),
    "D": ([1, -1, 0, 1], [[1, -1], [1, -1], [1, 0, -1]]),
    "E": ([1], [[1, -1], [1, 0, -1], [1, 0, 0, -1]]),
}


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _poly1(pairs) -> dict[int, int]:
    return {e: int(c) for e, c in pairs}


def _lowest_from_counts(counts, writhe: int, strands: int) -> dict[int, int]:
    return {writhe - strands - 2 * r: c for r, c in counts if c}


def check_pinf(item, out) -> None:
    letters = item.params["letters"]
    writhe = len(letters)
    _require(out["writhe"] == writhe and out["strands"] == item.strands, "writhe or strands differ")
    _require(out["counts"][0] == [0, 1], "counts[0] is not 1")
    pinf = _poly1(out["pinf"])
    _require(pinf == _lowest_from_counts(out["counts"], writhe, item.strands),
             "pinf disagrees with its counts")
    if item.deep:
        a_exp, part = jaeger_homfly(BraidWord(item.strands, tuple(letters))).pinf()
        _require(a_exp == writhe - item.strands, "full state sum has another lowest a-power")
        _require(part.coeffs == pinf, "pinf differs from the full state sum's lowest a-part")


def _reports(out, expected: int):
    _require(isinstance(out, list) and len(out) == expected, "wrong number of reports")
    return out


def check_conjecture_type(item, out) -> None:
    (report,) = _reports(out, 1)
    _require(report["name"] == item.params["label"], "report names another germ")
    _require(report["ok"] is True, f"{report['name']}: ok is {report['ok']}")


def check_conjecture_torus(item, out) -> None:
    p, q = item.params["p"], item.params["q"]
    (report,) = _reports(out, 1)
    pinf = _poly1(report["pinf"])
    _require(pinf.get(-1) == math.comb(p + q, p) // (p + q),
             f"T({p},{q}): z^-1 coefficient is not the rational Catalan number")
    top = max(pinf)
    _require(top == p * q - p - q and pinf[top] == 1, f"T({p},{q}): top term is not z^(2delta-1)")


def check_conjecture_all(item, out) -> None:
    # A1..A12, D4..D12, E6..E8; only A and E6/E8 carry braid words.
    reports = _reports(out, 12 + 9 + 3)
    for r in reports:
        has_braid = r["name"][0] == "A" or r["name"] in ("E6", "E8")
        _require(r["ok"] is (True if has_braid else None), f"{r['name']}: ok is {r['ok']}")


def _homfly_at(terms, a: Fraction) -> Fraction:
    z = 1 / a - a
    return sum(int(c) * a ** ea * z ** ez for ea, ez, c in terms)


def check_homfly(item, out) -> None:
    letters = item.params["letters"]
    writhe = sum(s for _, s in letters)
    _require(out["writhe"] == writhe and out["strands"] == item.strands, "writhe or strands differ")
    _require(out["homfly"] is not None, "normalized value missing")
    for a in HOMFLY_POINTS:
        _require(_homfly_at(out["homfly"], a) == 1, f"P(a, a^-1 - a) != 1 at a = {a}")
    positive = all(s > 0 for _, s in letters)
    _require((out["counts"] is not None) == positive, "counts present exactly for positive words")
    if positive:
        _require(out["pinf_a_exponent"] == writhe - item.strands, "lowest a-power is not w - n")
        _require(_poly1(out["pinf"]) == _lowest_from_counts(out["counts"], writhe, item.strands),
                 "pinf of the full sum disagrees with the fast-path counts")


def check_series_count(item, out) -> None:
    closed = model_series(item.params["model"], item.params["order"])
    _require(out["coeffs"] == list(closed.coeffs), "staircase count differs from closed form")


def _mul_trunc(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def check_series_closed(item, out) -> None:
    order = item.params["order"]
    numerator, factors = MODEL_FORMS[item.params["model"]]
    product = out["coeffs"]
    _require(len(product) == order + 1, "series has the wrong length")
    for f in factors:
        product = _mul_trunc(product, f, order)
    expected = numerator + [0] * (order + 1 - len(numerator))
    _require(product == expected[: order + 1], "series times denominator is not the numerator")


def check_ade(item, out) -> None:
    t = ADEType.parse(item.params["label"])
    values = out["values"]
    _require(out["kind"] == "local" and len(values) == t.delta + 1, "vector has the wrong shape")
    for route, nh in (("series", ade_nh(t)), ("formula", ade_closed_vector(t)),
                      ("dynkin", dynkin_nh(t))):
        _require(list(nh.values) == values, f"{t.name}: {route} route disagrees")


def check_dynkin(item, out) -> None:
    t = ADEType.parse(item.params["label"])
    counts = out["independent_set_counts"]
    _require(out["vertices"] == t.index and counts[:2] == [1, t.index], "diagram counts malformed")
    _require(out["nh"]["values"] == list(ade_closed_vector(t).values),
             f"{t.name}: diagram disagrees with the closed formula")


def check_transform(item, out) -> None:
    delta, branches = item.params["delta"], item.params["branches"]
    nh = NhVector("local", 0, tuple(out["values"]))
    again = series_from_nh(nh, delta, branches)
    _require(again == TruncatedSeries(item.params["coeffs"]).truncate(delta),
             "series_from_nh does not rebuild the input")


def check_combine(item, out) -> None:
    types = [ADEType.parse(label) for label in item.params["labels"]]
    genus = item.params["gtilde"] + sum(t.delta for t in types)
    germs = [LocalGermData(t.delta, t.branches, series_from_nh(ade_nh(t), genus, t.branches))
             for t in types]
    hilb = hilb_from_locals(item.params["gtilde"], germs, genus)
    expected = nh_from_series(hilb, genus).as_map()
    got = {out["low"] + i: v for i, v in enumerate(out["values"]) if v}
    _require(got == expected, "combine disagrees with hilb_from_locals + nh_from_series")


CHECKS = {
    "pinf": check_pinf,
    "conjecture_type": check_conjecture_type,
    "conjecture_torus": check_conjecture_torus,
    "conjecture_all": check_conjecture_all,
    "homfly": check_homfly,
    "series_count": check_series_count,
    "series_closed": check_series_closed,
    "ade": check_ade,
    "dynkin": check_dynkin,
    "transform": check_transform,
    "combine": check_combine,
}


def check(item, stdout: str) -> None:
    """Raise CheckFailed unless `stdout` is a correct answer to `item`."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        raise CheckFailed("output is not one JSON document") from None
    CHECKS[item.kind](item, out)


def failure(item, record: dict) -> str | None:
    """Why the recorded outcome of `item` is wrong, or None if it is right."""
    if record["code"] != 0:
        return f"exit {record['code']}: {record['stderr'].strip()[:200]}"
    try:
        check(item, record["stdout"])
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outputs", required=True)
    args = parser.parse_args()
    checked, failed_ids, reasons = 0, [], []
    batch, items, offset = None, [], 0
    with open(args.outputs) as fh:
        for line in fh:
            record = json.loads(line)
            if record["batch"] != batch:
                batch, offset = record["batch"], 0
                items = WORKLOADS[args.workload](args.seed, batch)
            item = items[offset]
            reason = failure(item, record)
            if reason is not None:
                failed_ids.append(batch * len(items) + offset)
                reasons.append(f"{' '.join(item.argv)[:120]}: {reason}")
            offset += 1
            checked += 1
    print(json.dumps({"checked": checked, "failed_ids": failed_ids, "reasons": reasons[:20]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
