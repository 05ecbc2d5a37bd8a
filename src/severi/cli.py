"""Command-line front end.

Every subcommand prints a deterministic text form by default and one
well-formed JSON document with --json.  Exit code 0 means success; bad
flags or invalid values exit nonzero.  The environment variable
SEVERI_BUDGET caps the number of letters the state-sum enumeration will
accept (default 26).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import braid as braid_mod
from . import dynkin as dynkin_mod
from . import models as models_mod
from . import staircase as staircase_mod
from .genus_transform import (
    NhVector,
    combine_local,
    nh_from_series,
    nh_from_series_local_raw,
)
from .laurent import TruncatedSeries


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _budget() -> int | None:
    raw = os.environ.get("SEVERI_BUDGET")
    if raw is None:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"SEVERI_BUDGET must be an integer, got {raw!r}")
    if budget < 0:
        raise ValueError(f"SEVERI_BUDGET must be nonnegative, got {raw!r}")
    return budget


def _parse_coeffs(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"coefficients must be comma-separated integers, got {text!r}")


def _cmd_series(args) -> int:
    if args.method == "closed":
        series = staircase_mod.model_series(args.model, args.order)
    else:
        constraint = staircase_mod.BoxConstraint.for_model(args.model)
        series = staircase_mod.count_staircases(args.order, constraint)
    coeffs = list(series.coeffs)
    if args.json:
        print(_dumps({"model": args.model, "order": args.order, "method": args.method,
                      "coeffs": coeffs}))
    else:
        print(", ".join(str(c) for c in coeffs))
    return 0


def _cmd_transform(args) -> int:
    coeffs = _parse_coeffs(args.coeffs)
    series = TruncatedSeries(coeffs)
    if args.local and args.global_:
        raise ValueError("choose one of --global and --local")
    if args.local:
        if args.delta is None or args.branches is None:
            raise ValueError("the local transform needs --delta and --branches")
        nh = nh_from_series_local_raw(series, args.delta, args.branches)
    else:
        if args.genus is None:
            raise ValueError("the global transform needs --genus")
        nh = nh_from_series(series, args.genus)
    if args.json:
        print(_dumps(nh.to_json()))
    else:
        print(_dumps(list(nh.values)))
    return 0


def _cmd_ade(args) -> int:
    t = staircase_mod.ADEType.parse(args.type)
    nh = staircase_mod.ade_closed_vector(t) if args.formula else staircase_mod.ade_nh(t)
    if args.json:
        print(_dumps(nh.to_json()))
    else:
        print(f"{t.name}: delta={t.delta} branches={t.branches} milnor={t.milnor}")
        print(nh.pretty())
    return 0


def _cmd_dynkin(args) -> int:
    t = staircase_mod.ADEType.parse(args.type)
    graph = dynkin_mod.dynkin_diagram(t)
    counts = dynkin_mod.independence_counts(graph)
    nh = dynkin_mod.dynkin_nh(t)
    if args.json:
        print(_dumps({"type": t.name, "vertices": graph.vertices,
                      "independent_set_counts": list(counts),
                      "nh": nh.to_json()}))
    else:
        print(f"{t.name}: independent-set counts by size: " + ", ".join(str(c) for c in counts))
        print(nh.pretty())
    return 0


def _cmd_homfly(args) -> int:
    word = braid_mod.parse_braid(args.word, args.strands)
    value = braid_mod.jaeger_homfly(word, _budget())
    a_exp, part = value.pinf()
    counts = None
    if word.is_positive():
        counts = list(braid_mod.pinf_positive(word, _budget()).counts)
    if args.json:
        print(_dumps({
            "strands": word.strands,
            "writhe": word.writhe,
            "normalization": "unknot-is-one",
            "homfly": value.normalized.to_json() if value.normalized is not None else None,
            "pinf": part.to_json(),
            "pinf_a_exponent": a_exp,
            "counts": [[r, c] for r, c in enumerate(counts)] if counts is not None else None,
        }))
    elif args.pinf:
        print(part.pretty("z"))
    else:
        print("homfly =", value.normalized.pretty() if value.normalized is not None else "(not divisible)")
        print("pinf   =", part.pretty("z"))
    return 0


def _cmd_pinf(args) -> int:
    word = braid_mod.parse_braid(args.word, args.strands)
    result = braid_mod.pinf_positive(word, _budget())
    if args.json:
        print(_dumps({
            "strands": result.strands,
            "writhe": result.writhe,
            "pinf": result.poly.to_json(),
            "counts": [[r, c] for r, c in enumerate(result.counts)],
        }))
    else:
        print("pinf =", result.poly.pretty("z"))
        print("counts =", ", ".join(f"r={r}: {c}" for r, c in enumerate(result.counts)))
    return 0


def _report_json(report: models_mod.ConjectureReport) -> dict:
    return {
        "name": report.name,
        "pinf": report.pinf.poly.to_json() if report.pinf is not None else None,
        "predicted": report.predicted.to_json() if report.predicted is not None else None,
        "ok": report.ok,
        "note": report.note,
    }


def _report_text(report: models_mod.ConjectureReport) -> str:
    if report.pinf is None:
        return f"{report.name}: skipped ({report.note})"
    line = f"{report.name}: pinf = {report.pinf.poly.pretty('z')}"
    if report.predicted is None:
        return line + f" ({report.note})"
    verdict = "OK" if report.ok else "MISMATCH"
    return line + f", predicted = {report.predicted.pretty('z')} .. {verdict}"


def _cmd_conjecture(args) -> int:
    budget = _budget()
    reports = []
    if args.all:
        for model in models_mod.catalog():
            reports.append(models_mod.conjecture_check(model, budget))
    elif args.torus:
        try:
            p, q = (int(x) for x in args.torus.split(","))
        except ValueError:
            raise ValueError(f"--torus expects P,Q (two integers), got {args.torus!r}")
        reports.append(models_mod.conjecture_check(models_mod.torus_model(p, q), budget))
    elif args.type:
        t = staircase_mod.ADEType.parse(args.type)
        matching = [m for m in models_mod.catalog(max(12, t.index)) if m.name == t.name]
        reports.append(models_mod.conjecture_check(matching[0], budget))
    else:
        raise ValueError("choose one of --type, --torus, --all")
    if args.json:
        print(_dumps([_report_json(r) for r in reports]))
    else:
        for r in reports:
            print(_report_text(r))
    return 0 if all(r.ok is not False for r in reports) else 1


def _cmd_combine(args) -> int:
    locals_ = []
    if args.locals:
        for part in args.locals.split(";"):
            locals_.append(NhVector("local", 0, tuple(_parse_coeffs(part))))
    nh = combine_local(args.gtilde, locals_)
    if args.json:
        print(_dumps(nh.to_json()))
    else:
        print(nh.pretty())
    return 0


def _cmd_catalog(args) -> int:
    records = []
    for m in models_mod.catalog():
        records.append({
            "name": m.name,
            "delta": m.delta,
            "mu": m.mu,
            "branches": m.branches,
            "nh_source": m.nh_source,
            "braid": None if m.link_braid is None else
                     {"strands": m.link_braid.strands, "word": m.link_braid.text()},
        })
    if args.json:
        print(_dumps(records))
    else:
        for r in records:
            braid = "-" if r["braid"] is None else f"{r['braid']['word']} on {r['braid']['strands']}"
            print(f"{r['name']:>4}  delta={r['delta']:>2}  mu={r['mu']:>2}  "
                  f"b={r['branches']}  braid: {braid}")
    return 0


def _selftest_cases():
    """Anchored checks, one per worked value the package must reproduce."""
    from .genus_transform import (GlobalCurveData, LocalGermData, TruncatedSeries as _TS,
                                  check_low_vanishing, hilb_from_locals, identity_checks,
                                  nh_from_series_global, series_from_nh)
    from .laurent import one_minus_q_power
    from .staircase import ADEType, ade_closed_formula, ade_nh, model_series

    def nh_local(values):
        return NhVector("local", 0, tuple(values))

    def germ(values, branches, order):
        return LocalGermData(len(values) - 1, branches,
                             series_from_nh(nh_local(values), order, branches))

    def case_smooth_genus2():
        data = GlobalCurveData(2, 2, one_minus_q_power(2, 2))
        return nh_from_series_global(data).as_map() == {2: 1}

    def case_nodal_cubic():
        hilb = hilb_from_locals(0, [germ((1, 1), 2, 5)], 5)
        nh = nh_from_series(hilb, 1)
        return nh.as_map() == {0: 1, 1: 1}

    def case_cuspidal_cubic():
        hilb = hilb_from_locals(0, [germ((2, 1), 1, 5)], 5)
        nh = nh_from_series(hilb, 1)
        return nh.as_map() == {0: 2, 1: 1}

    def case_local_node_cusp():
        node = nh_from_series_local_raw(_TS((1, 1)), 1, 2)
        cusp = nh_from_series_local_raw(_TS((1, 1)), 1, 1)
        return node.values == (1, 1) and cusp.values == (2, 1)

    def case_e6_series_inverse():
        again = series_from_nh(nh_local((5, 10, 6, 1)), 3, branches=1)
        return again == model_series("E", 3)

    def case_nodal_binomial():
        import math
        node = nh_local((1, 1))
        for k in range(0, 7):
            nh = combine_local(0, [node] * k)
            if any(nh.n(h) != math.comb(k, k - h) for h in range(k + 1)):
                return False
        return True

    def case_single_local_identity():
        cusp = nh_local((2, 1))
        return combine_local(0, [cusp]) == cusp

    def case_low_vanishing():
        nodal = hilb_from_locals(0, [germ((1, 1), 2, 6)], 6)
        cuspidal = hilb_from_locals(0, [germ((2, 1), 1, 6)], 6)
        return (check_low_vanishing(nodal, 1) == (True, 1)
                and check_low_vanishing(cuspidal, 1) == (True, 2))

    def case_identity_checks():
        cuspidal = hilb_from_locals(0, [germ((2, 1), 1, 4)], 4)
        report = identity_checks(GlobalCurveData(1, 0, cuspidal), 2)
        nodal = hilb_from_locals(0, [germ((1, 1), 2, 4)], 4)
        report2 = identity_checks(GlobalCurveData(1, 0, nodal), 1)
        return report["ok"] and report["n_subtop"] == 2 and report2["ok"]

    def table_case(label, expected):
        t = ADEType.parse(label)
        closed = tuple(ade_closed_formula(t, h) for h in range(t.delta + 1))
        return (ade_nh(t).values == expected
                and closed == expected
                and dynkin_mod.dynkin_nh(t).values == expected)

    def case_trefoil_homfly():
        word = braid_mod.parse_braid("1 1 1", 2)
        value = braid_mod.jaeger_homfly(word)
        target = {(2, 0): 2, (2, 2): 1, (4, 0): -1}
        return value.normalized is not None and value.normalized.coeffs == target

    def case_trefoil_admissible():
        word = braid_mod.parse_braid("1 1 1", 2)
        masks = {p.kept for p in braid_mod.iter_admissible(word)}
        expected = {(False, False, False), (False, False, True), (True, True, False),
                    (False, True, True), (True, True, True)}
        return masks == expected

    def case_trefoil_pinf():
        result = braid_mod.pinf_positive(braid_mod.parse_braid("1 1 1", 2))
        return result.counts == (1, 2) and result.poly.coeffs == {-1: 2, 1: 1}

    def case_t34():
        result = braid_mod.pinf_positive(braid_mod.parse_braid("(1 2)^4", 3))
        return (result.counts == (1, 6, 10, 5)
                and result.poly.coeffs == {-1: 5, 1: 10, 3: 6, 5: 1}
                and braid_mod.closure_components(braid_mod.parse_braid("(1 2)^4", 3)) == 1)

    def case_closures_are_knots():
        return (braid_mod.closure_components(braid_mod.parse_braid("1 1 1", 2)) == 1
                and braid_mod.closure_components(braid_mod.parse_braid("(1 2)^4", 3)) == 1)

    def case_milnor():
        tre = braid_mod.milnor_from_braid(braid_mod.parse_braid("1 1 1", 2))
        t34 = braid_mod.milnor_from_braid(braid_mod.parse_braid("(1 2)^4", 3))
        return (tre.mu, tre.delta(1)) == (2, 1) and (t34.mu, t34.delta(1)) == (6, 3)

    def case_catalog_records():
        entries = {m.name: m for m in models_mod.catalog()}
        a2, e6 = entries["A2"], entries["E6"]
        return (a2.link_braid.text() == "1 1 1" and a2.link_braid.strands == 2
                and (a2.delta, a2.mu, a2.branches) == (1, 2, 1)
                and e6.delta == 3 and e6.link_braid.strands == 3
                and e6.link_braid.letters == ((1, 1), (2, 1)) * 4)

    def conjecture_case(name, expected_coeffs):
        matching = [m for m in models_mod.catalog() if m.name == name]
        report = models_mod.conjecture_check(matching[0])
        return bool(report.ok) and report.pinf.poly.coeffs == expected_coeffs

    return [
        ("transform: smooth genus-2 vector", case_smooth_genus2),
        ("transform: rational nodal cubic", case_nodal_cubic),
        ("transform: rational cuspidal cubic", case_cuspidal_cubic),
        ("transform: node and cusp local vectors", case_local_node_cusp),
        ("transform: E6 vector rebuilds its series", case_e6_series_inverse),
        ("transform: nodal-curve binomials", case_nodal_binomial),
        ("transform: single germ passes through", case_single_local_identity),
        ("transform: antisymmetry criterion constants", case_low_vanishing),
        ("transform: top and subtop identities", case_identity_checks),
        ("tables: E6 three ways", lambda: table_case("E6", (5, 10, 6, 1))),
        ("tables: E7 three ways", lambda: table_case("E7", (2, 11, 15, 7, 1))),
        ("tables: E8 three ways", lambda: table_case("E8", (7, 21, 21, 8, 1))),
        ("tables: node A1", lambda: table_case("A1", (1, 1))),
        ("tables: cusp A2", lambda: table_case("A2", (2, 1))),
        ("tables: tacnode A3", lambda: table_case("A3", (1, 3, 1))),
        ("state sum: closures of both example words are knots", case_closures_are_knots),
        ("state sum: trefoil polynomial", case_trefoil_homfly),
        ("state sum: trefoil admissible set", case_trefoil_admissible),
        ("state sum: trefoil lowest part", case_trefoil_pinf),
        ("state sum: (3,4) torus knot counts", case_t34),
        ("state sum: invariants from positive words", case_milnor),
        ("catalog: cusp and E6 records", case_catalog_records),
        ("cross-check: cusp", lambda: conjecture_case("A2", {-1: 2, 1: 1})),
        ("cross-check: E6", lambda: conjecture_case("E6", {-1: 5, 1: 10, 3: 6, 5: 1})),
        ("cross-check: E8", lambda: conjecture_case("E8", {-1: 7, 1: 21, 3: 21, 5: 8, 7: 1})),
    ]


def _cmd_selftest(args) -> int:
    results = []
    for name, fn in _selftest_cases():
        result = {"name": name}
        try:
            result["pass"] = bool(fn())
        except Exception as exc:
            result["pass"] = False
            result["error"] = f"{type(exc).__name__}: {exc}"
        results.append(result)
    ok = all(r["pass"] for r in results)
    if args.json:
        print(_dumps({"results": results, "ok": ok}))
    else:
        for r in results:
            reason = f": {r['error']}" if "error" in r else ""
            print(("PASS  " if r["pass"] else "FAIL  ") + r["name"] + reason)
        print(f"{sum(r['pass'] for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="severi",
        description="Exact stratum multiplicities of curve singularities and "
                    "lowest-order HOMFLY parts of their links.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="Euler series of a model curve")
    p.add_argument("--model", required=True, choices=list(staircase_mod.MODEL_FAMILIES))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--method", choices=["closed", "count"], default="closed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("transform", help="multiplicities from a coefficient list")
    p.add_argument("--global", dest="global_", action="store_true")
    p.add_argument("--local", action="store_true")
    p.add_argument("--genus", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--branches", type=int)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("ade", help="multiplicity vector of a simple singularity")
    p.add_argument("--type", required=True)
    p.add_argument("--formula", action="store_true",
                   help="use the closed binomial route instead of the series route")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_ade)

    p = sub.add_parser("dynkin", help="independent-set counts of an ADE diagram")
    p.add_argument("--type", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_dynkin)

    p = sub.add_parser("homfly", help="full state sum of a braid closure")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--pinf", action="store_true", help="print only the lowest a-part")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_homfly)

    p = sub.add_parser("pinf", help="lowest a-part of a positive braid closure")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_pinf)

    p = sub.add_parser("conjecture", help="compare state sum with multiplicity prediction")
    p.add_argument("--type")
    p.add_argument("--torus", help="coprime exponent pair, e.g. 3,4")
    p.add_argument("--all", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_conjecture)

    p = sub.add_parser("combine", help="global vector from local vectors")
    p.add_argument("--gtilde", type=int, required=True)
    p.add_argument("--locals", default="",
                   help="semicolon-separated local vectors, each a comma list")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_combine)

    p = sub.add_parser("catalog", help="list the built-in singularity models")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("selftest", help="run the anchored example suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
