import json

import pytest

import severi.cli as cli_mod
from severi.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_ade_json_exact_bytes(capsys):
    code, out, _ = run(capsys, "ade", "--type", "E6", "--json")
    assert code == 0
    assert out == '{"kind":"local","low":0,"values":[5,10,6,1]}\n'


def test_homfly_pinf_exact_bytes(capsys):
    code, out, _ = run(capsys, "homfly", "--strands", "2", "--word", "1 1 1", "--pinf")
    assert code == 0
    assert out == "2*z^-1 + z\n"


def test_transform_local_node(capsys):
    code, out, _ = run(capsys, "transform", "--local", "--delta", "1",
                       "--branches", "2", "--coeffs", "1,1")
    assert code == 0
    assert out == "[1,1]\n"


def test_transform_global_json(capsys):
    code, out, _ = run(capsys, "transform", "--global", "--genus", "1",
                       "--coeffs", "1,1,2,3", "--json")
    assert code == 0
    assert json.loads(out) == {"kind": "global", "low": 0, "values": [1, 1]}


def test_series_both_methods_agree(capsys):
    # order 1100 once overflowed the interpreter stack in the count route
    for order in ("12", "1100"):
        code, closed, _ = run(capsys, "series", "--model", "D", "--order", order, "--json")
        assert code == 0
        code, counted, _ = run(capsys, "series", "--model", "D", "--order", order,
                               "--method", "count", "--json")
        assert code == 0
        assert json.loads(closed)["coeffs"] == json.loads(counted)["coeffs"]
        assert json.loads(closed)["coeffs"][:6] == [1, 1, 2, 3, 5, 7]


def test_dynkin_json(capsys):
    code, out, _ = run(capsys, "dynkin", "--type", "E6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["independent_set_counts"] == [1, 6, 10, 5, 0, 0, 0]
    assert doc["nh"]["values"] == [5, 10, 6, 1]


def test_homfly_json_schema(capsys):
    code, out, _ = run(capsys, "homfly", "--strands", "2", "--word", "1 1 1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["strands"] == 2 and doc["writhe"] == 3
    assert doc["homfly"] == [[2, 0, "2"], [2, 2, "1"], [4, 0, "-1"]]
    assert doc["pinf"] == [[-1, "2"], [1, "1"]]
    assert doc["pinf_a_exponent"] == 1
    assert doc["counts"] == [[0, 1], [1, 2]]


def test_pinf_json(capsys):
    code, out, _ = run(capsys, "pinf", "--strands", "3", "--word", "(1 2)^4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == [[0, 1], [1, 6], [2, 10], [3, 5]]
    assert doc["pinf"] == [[-1, "5"], [1, "10"], [3, "6"], [5, "1"]]


def test_conjecture_all(capsys):
    code, out, _ = run(capsys, "conjecture", "--all", "--json")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 24
    for doc in docs:
        assert doc["ok"] is not False
    checked = [d for d in docs if d["ok"] is True]
    assert {"A2", "E6", "E8"} <= {d["name"] for d in checked}


def test_conjecture_torus(capsys):
    code, out, _ = run(capsys, "conjecture", "--torus", "3,4", "--json")
    assert code == 0
    doc = json.loads(out)[0]
    assert doc["pinf"] == [[-1, "5"], [1, "10"], [3, "6"], [5, "1"]]
    assert doc["predicted"] is None
    # T(5, 6): 24 letters; the lowest coefficient is the rational
    # Catalan number binom(11, 5) / 11.
    code, out, _ = run(capsys, "conjecture", "--torus", "5,6", "--json")
    assert code == 0
    assert [-1, "42"] in json.loads(out)[0]["pinf"]


def test_combine(capsys):
    code, out, _ = run(capsys, "combine", "--gtilde", "0",
                       "--locals", "1,1;1,1;1,1", "--json")
    assert code == 0
    assert json.loads(out) == {"kind": "global", "low": 0, "values": [1, 3, 3, 1]}
    code, out, _ = run(capsys, "combine", "--gtilde", "3", "--json")
    assert json.loads(out) == {"kind": "global", "low": 3, "values": [1]}


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 24
    a2 = next(d for d in docs if d["name"] == "A2")
    assert a2["braid"] == {"strands": 2, "word": "1 1 1"}
    assert a2["delta"] == 1 and a2["mu"] == 2


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 20


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(r["pass"] for r in doc["results"])


def test_selftest_names_the_exception(capsys, monkeypatch):
    cases = cli_mod._selftest_cases()

    def broken():
        raise ValueError("broken on purpose")

    cases[1] = (cases[1][0], broken)
    monkeypatch.setattr(cli_mod, "_selftest_cases", lambda: cases)
    code, out, _ = run(capsys, "selftest")
    lines = out.splitlines()
    assert code == 1
    assert lines[1] == f"FAIL  {cases[1][0]}: ValueError: broken on purpose"
    assert lines[0] == f"PASS  {cases[0][0]}"
    assert lines[-1] == f"{len(cases) - 1}/{len(cases)} checks passed"
    code, out, _ = run(capsys, "selftest", "--json")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert doc["results"][1] == {"name": cases[1][0], "pass": False,
                                 "error": "ValueError: broken on purpose"}
    assert all("error" not in r for i, r in enumerate(doc["results"]) if i != 1)


def test_deterministic_output(capsys):
    first = run(capsys, "homfly", "--strands", "3", "--word", "(1 2)^4", "--json")
    second = run(capsys, "homfly", "--strands", "3", "--word", "(1 2)^4", "--json")
    assert first == second
    first = run(capsys, "catalog", "--json")
    second = run(capsys, "catalog", "--json")
    assert first == second


def test_validation_failures_exit_nonzero(capsys):
    code, _, err = run(capsys, "ade", "--type", "Q7")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "homfly", "--strands", "3", "--word", "5 1")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "pinf", "--strands", "2", "--word", "-1 1")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "transform", "--local", "--coeffs", "1,1")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "conjecture")
    assert code == 1 and "error:" in err
    for text in ("3", "2,x"):
        code, out, err = run(capsys, "conjecture", "--torus", text)
        assert (code, out) == (1, "")
        assert err == f"error: --torus expects P,Q (two integers), got '{text}'\n"
    for method in ("closed", "count"):
        code, out, err = run(capsys, "series", "--model", "A", "--order", "-1", "--method", method)
        assert (code, out) == (1, "")
        assert err == "error: truncation order must be nonnegative\n"
    for branches in ("0", "-1"):
        code, out, err = run(capsys, "transform", "--local", "--delta", "2",
                             "--branches", branches, "--coeffs", "1,1,2")
        assert (code, out) == (1, "")
        assert err == "error: a germ has at least one branch\n"


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["homfly"])
    assert exc.value.code != 0


def test_budget_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("SEVERI_BUDGET", "2")
    code, _, err = run(capsys, "homfly", "--strands", "2", "--word", "1 1 1")
    assert code == 1 and "budget" in err
    monkeypatch.setenv("SEVERI_BUDGET", "30")
    code, out, _ = run(capsys, "homfly", "--strands", "2", "--word", "1 1 1", "--pinf")
    assert code == 0 and out == "2*z^-1 + z\n"
    monkeypatch.setenv("SEVERI_BUDGET", "nope")
    code, _, err = run(capsys, "homfly", "--strands", "2", "--word", "1 1 1")
    assert code == 1 and "SEVERI_BUDGET" in err
    monkeypatch.setenv("SEVERI_BUDGET", "-3")
    code, _, err = run(capsys, "pinf", "--strands", "2", "--word", "1 1 1")
    assert code == 1 and "SEVERI_BUDGET" in err and err.count("\n") == 1
