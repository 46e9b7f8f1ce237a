"""End-to-end CLI runs: artifacts, determinism, exit codes."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bundleopt import applications as apps
from bundleopt import cli, demand, load_spec
from bundleopt.cli import main
from bundleopt.dominance import TiedBestSellerWarning
from bundleopt.model import MonomialSum
from bundleopt.oracle import DiscretizedInstance, _lp, solve_lp

from support import random_instance_doc, two_item_doc


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(two_item_doc(0.3, 0.5, grid_size=1025)))
    return str(path)


@pytest.fixture
def bad_spec_file(tmp_path):
    doc = {
        "n_items": 2,
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "values": {
            "[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
            "[1,2]": {"terms": [{"coef": 0.5, "exp": 1.0}]},
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_outputs(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", "--spec", spec_file, "--out", str(out), "--hasse"])
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "demand_1-2.csv").exists()
    assert (out / "dominance.dot").exists()
    payload = json.loads((out / "dominance.json").read_text())
    assert payload["nested"] is True
    assert payload["undominated"] == ["{2}", "{1,2}"]
    first = (out / "summary.csv").read_text().splitlines()[0]
    assert first.startswith("# spec_sha256=")


def test_analyze_demand_csv_has_summary_row(spec_file, tmp_path):
    out = tmp_path / "out"
    main(["analyze", "--spec", spec_file, "--out", str(out)])
    lines = (out / "demand_2.csv").read_text().splitlines()
    assert lines[1] == "q,price,profit,eta,eta_cost_adjusted"
    assert lines[-1].startswith("# summary d_star=")


def test_solve_artifacts_and_exit(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--spec", spec_file, "--out", str(out), "--csv"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "certificate      VALID" in stdout
    payload = json.loads((out / "solution.json").read_text())
    assert [row["bundle"] for row in payload["menu"]] == ["{2}", "{1,2}"]
    assert (out / "allocation.csv").exists()
    assert (out / "virtual_surplus.csv").exists()


def test_solve_nesting_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(two_item_doc(0.5, 4.5, grid_size=1025)))
    code = main(["solve", "--spec", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "nesting"


def test_validation_failure_exit_code(bad_spec_file, tmp_path, capsys):
    code = main(["solve", "--spec", bad_spec_file, "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "validation"


def test_verify_artifacts(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "verify", "--spec", spec_file, "--out", str(out), "--types", "51", "--dump-lp",
    ])
    assert code == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["verdict"] == "CONFIRMED"
    assert (out / "instance.lp").exists()
    assert "verdict             CONFIRMED" in capsys.readouterr().out


def test_verify_suboptimal_verdict(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(two_item_doc(0.5, 4.5, grid_size=1025)))
    out = tmp_path / "out"
    code = main(["verify", "--spec", str(path), "--out", str(out), "--types", "101"])
    assert code == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["verdict"] == "NESTED_SUBOPTIMAL"
    assert payload["nesting_condition"] is False
    assert "lp uses lotteries" in capsys.readouterr().out


def test_non_monotone_envelope_exit_codes(tmp_path, capsys):
    # solve refuses the menu (exit 4); verify benchmarks the LP against the
    # best nested menu instead, with a finite profit
    from test_menu import NON_MONOTONE_ENVELOPE_DOC

    path = tmp_path / "problem.json"
    path.write_text(json.dumps(NON_MONOTONE_ENVELOPE_DOC))
    assert main(["solve", "--spec", str(path), "--out", str(tmp_path / "s")]) == 4
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "internal" and "not monotone" in err["detail"]
    out = tmp_path / "v"
    assert main(["verify", "--spec", str(path), "--out", str(out), "--types", "31"]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["nesting_condition"] is True
    assert np.isfinite(payload["menu_profit_continuum"])


def test_sweep_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main([
        "sweep", "--gamma", "0.5", "--beta-range", "0.3:0.9:0.3",
        "--grid", "513", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("s,menu,")
    assert len(lines) == 2 + 3
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["rotated_item"] == 2


def test_quality_artifacts(tmp_path, capsys):
    doc = {
        "qualities": [1.0, 2.0, 3.0],
        "costs": [0.2, 0.2, 0.9],
        "values": {"kind": "multiplicative"},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "grid_size": 1025,
    }
    path = tmp_path / "quality.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["quality", "--spec", str(path), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "[2.0, 3.0]" in stdout
    lines = (out / "quality.csv").read_text().splitlines()
    assert lines[1] == "x,d_star,d_hat,c_avg,c_check,in_menu"


def test_screening_artifacts(tmp_path, capsys):
    doc = {
        "qualities": [1.0],
        "production_costs": [0.0],
        "values": {"kind": "multiplicative"},
        "actions": [{"terms": [{"coef": 0.3, "exp": 3.0}]}],
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "grid_size": 1025,
    }
    path = tmp_path / "screening.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["screening", "--spec", str(path), "--out", str(out)])
    assert code == 0
    assert "costly screening optimal: True" in capsys.readouterr().out
    payload = json.loads((out / "screening.json").read_text())
    assert payload["optimal"] is True


def test_quality_malformed_term_exit_code(tmp_path, capsys):
    doc = {
        "qualities": [1.0, 2.0],
        "values": {"kind": "exprs", "exprs": [
            {"terms": [{"coef": 1.0, "exp": 1.0}]},
            {"terms": [{"coef": 2.0}]},
        ]},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    }
    path = tmp_path / "quality.json"
    path.write_text(json.dumps(doc))
    code = main(["quality", "--spec", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "validation" and "quality 2" in err["detail"]


def test_screening_malformed_term_exit_code(tmp_path, capsys):
    doc = {
        "qualities": [1.0],
        "actions": [{"terms": [{"exp": 3.0}]}],
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    }
    path = tmp_path / "screening.json"
    path.write_text(json.dumps(doc))
    code = main(["screening", "--spec", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "validation" and "action 1" in err["detail"]


_UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
_ONE_ITEM = {"[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]}}


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("solve", {"n_items": 1, "distribution": {"kind": "uniform", "lo": 0.0},
                   "values": _ONE_ITEM}, "hi"),
        ("solve", {"n_items": 1, "distribution": {"kind": "quantile_table", "t": [0.0, 1.0]},
                   "values": _ONE_ITEM}, "u"),
        ("quality", {"distribution": _UNIFORM}, "qualities"),
        ("quality", {"qualities": [1.0, 2.0]}, "distribution"),
        ("quality", {"qualities": [1.0, 2.0], "values": {"kind": "exprs"},
                     "distribution": _UNIFORM}, "exprs"),
        ("screening", {"qualities": [1.0], "distribution": _UNIFORM}, "actions"),
    ],
)
def test_missing_key_exit_code(command, doc, key, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--spec", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "validation" and repr(key) in err["detail"]


def _one_item(**fields):
    return {"n_items": 1, "distribution": _UNIFORM, "values": _ONE_ITEM, **fields}


def _quality(**fields):
    return {"qualities": [1.0, 2.0], "distribution": _UNIFORM, **fields}


_EXPRS = {"kind": "exprs", "exprs": [{"const": 0.0}, {"terms": [{"coef": 1.0, "exp": 1.0}]}]}


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("solve", '{"n_items": 1,', "JSON"),
        ("quality", '{"qualities": [1.0', "JSON"),
        ("solve", _one_item(values=[{"terms": [{"coef": 1.0, "exp": 1.0}]}]), "'values'"),
        ("solve", _one_item(distribution={"kind": "uniform", "lo": "zero", "hi": 1.0}), "'lo'"),
        ("solve", _one_item(grid_size="fine"), "'grid_size'"),
        ("solve", _one_item(costs={"[1]": "cheap"}), "cost of bundle [1]"),
        ("solve", _one_item(distribution={"kind": "quantile_table", "u": "0 1", "t": [0.0, 1.0]}),
         "'u'"),
        ("solve", _one_item(distribution={"kind": "quantile_table", "u": [0.0, 1.0],
                                          "t": ["low", "high"]}), "'t'"),
        ("quality", _quality(qualities="1 2"), "'qualities'"),
        ("quality", _quality(qualities=2.0), "'qualities'"),
        ("quality", _quality(values=[{"terms": [{"coef": 1.0, "exp": 1.0}]}]), "'values'"),
        ("quality", _quality(values=_EXPRS), "quality 1"),
        ("screening", {"qualities": 1.0, "actions": [], "distribution": _UNIFORM}, "'qualities'"),
    ],
)
def test_mistyped_document_exit_code(command, doc, field, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = main([command, "--spec", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "validation" and field in err["detail"]


@pytest.mark.parametrize(
    "command, doc, detail",
    [
        ("screening", {"qualities": [1.0], "distribution": _UNIFORM,
                       "actions": [{"terms": [{"coef": -0.3, "exp": 1.0}], "const": 0.5}]},
         "strictly increasing"),
        ("screening", {"qualities": [1.0], "distribution": _UNIFORM, "actions": [{"const": 0.0}]},
         "action 1 is identically zero"),
        ("quality", _quality(costs=[1.5, 1.6]), "interior sales volumes"),
        # {1} = t exceeds {1,2} = 0.98t + t^2 below t = 0.02: between the
        # spec's grid points, but at the LP's bottom type
        ("verify", {"n_items": 2, "distribution": _UNIFORM, "grid_size": 33,
                    "values": {"[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
                               "[1,2]": {"terms": [{"coef": 0.98, "exp": 1.0},
                                                   {"coef": 1.0, "exp": 2.0}]}}},
         "exceeds value of {1,2} at the LP type t=0.00248756"),
    ],
)
def test_refused_assumption_exit_code(command, doc, detail, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--spec", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "validation" and detail in err["detail"]


def test_quality_run_profiles_each_quality_once(monkeypatch, tmp_path, capsys):
    # the sales route, the solver cross-check and the cost route all read the
    # embedding's one set of demand profiles; regularity is checked once
    calls = {"sales_volume": 0, "is_regular": 0}
    for name, original in (("sales_volume", demand.sales_volume), ("is_regular", apps.is_regular)):

        def counting(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        for module in (demand, apps):  # every namespace that calls it
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    doc = {
        "qualities": [1.0, 2.0, 3.0, 4.0],
        "costs": [0.2, 0.2, 0.9, 1.8],
        "distribution": _UNIFORM,
        "grid_size": 1025,
    }
    path = tmp_path / "quality.json"
    path.write_text(json.dumps(doc))
    assert main(["quality", "--spec", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "cost-envelope route agrees" in capsys.readouterr().out
    assert calls == {"sales_volume": 4, "is_regular": 1}


_SCREENING_DOC = {
    "qualities": [1.0],
    "production_costs": [0.0],
    "values": {"kind": "multiplicative"},
    "actions": [{"terms": [{"coef": 0.3, "exp": 3.0}]}],
    "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "grid_size": 1025,
}


def test_screening_lp_crosscheck_flag(tmp_path, capsys):
    path = tmp_path / "screening.json"
    path.write_text(json.dumps(_SCREENING_DOC))
    code = main([
        "screening", "--spec", str(path), "--out", str(tmp_path / "o"),
        "--verify-lp", "--types", "51",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "lp cross-check" in stdout and "usage mass" in stdout


@pytest.mark.parametrize(
    "command, doc, types, detail",
    [
        ("verify", two_item_doc(0.3, 0.5, grid_size=1025), 5, "m=5 outside supported range"),
        pytest.param(
            "verify", random_instance_doc(np.random.default_rng(0), 6, grid_size=1025), 301,
            "the oracle LP at m=301 with 63 sellable bundles needs 142.4 MB (limit 67.1 MB)",
            id="verify-lp-memory-limit",
        ),
        ("screening", _SCREENING_DOC, 5, "m=5 outside supported range"),
    ],
)
def test_lp_size_refusal_exit_code(command, doc, types, detail, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--spec", str(path), "--out", str(tmp_path / "o"), "--types", str(types)]
    code = main(argv + (["--verify-lp"] if command == "screening" else []))
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "validation" and detail in err["detail"]


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["verify", "--types", "301"], "needs 142.4 MB (limit 67.1 MB)"),
        (["reproduce", "--grid", "513", "--types", "5"], "m=5 outside supported range"),
    ],
    ids=["verify", "reproduce"],
)
def test_lp_size_refusal_precedes_menu_work(argv, detail, monkeypatch, tmp_path, capsys):
    # a refused LP size exits before any demand profile or menu is computed
    def unreachable(*_args):
        raise AssertionError("profiles computed for a refused LP size")

    monkeypatch.setattr(cli, "compute_profiles", unreachable)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(random_instance_doc(np.random.default_rng(0), 6, grid_size=1025)))
    if argv[0] == "verify":
        argv = argv + ["--spec", str(path)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "validation" and detail in err["detail"]


_SCIPY_PROBE = """
import json, sys
from bundleopt.cli import main

def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

runs = json.loads(sys.argv[1])
codes = [main(argv) for argv in runs[:-1]]
before = scipy_modules()
codes.append(main(runs[-1]))
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules()}))
"""


def test_only_lp_commands_import_scipy(tmp_path):
    # analyze, solve, sweep, quality and screening need numpy only; verify loads scipy
    # for its LP.  Run in a fresh interpreter: this one has scipy loaded.
    docs = {
        "problem": two_item_doc(0.3, 0.5, grid_size=1025),
        "quality": {"qualities": [1.0, 2.0, 3.0], "costs": [0.2, 0.2, 0.9],
                    "values": {"kind": "multiplicative"}, "distribution": _UNIFORM,
                    "grid_size": 1025},
        "screening": _SCREENING_DOC,
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "o")]
    runs = [
        ["analyze", "--spec", str(tmp_path / "problem.json"), *out],
        ["solve", "--spec", str(tmp_path / "problem.json"), *out],
        ["sweep", "--gamma", "0.5", "--beta-range", "0.5:1.5:0.5", "--grid", "513", *out],
        ["quality", "--spec", str(tmp_path / "quality.json"), *out],
        ["screening", "--spec", str(tmp_path / "screening.json"), *out],
        ["verify", "--spec", str(tmp_path / "problem.json"), "--types", "21", *out],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * len(runs)
    assert result["before"] == []
    assert "scipy.optimize" in result["after"]


def test_verify_six_items(tmp_path):
    # 63 sellable bundles at m=201: 12,864 LP variables, under the LP memory limit
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(random_instance_doc(np.random.default_rng(0), 6, grid_size=1025)))
    out = tmp_path / "out"
    assert main(["verify", "--spec", str(path), "--out", str(out), "--types", "201"]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["verdict"] == "CONFIRMED"
    for key in ("lp_ic_violation", "lp_stationarity", "lp_duality_gap"):
        assert 0.0 <= payload[key] <= 1e-7, key


def test_reproduce_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "reproduce", "--out", str(out), "--grid", "513", "--types", "51",
        "--beta-range", "0.3:1.9:0.4",
    ])
    assert code == 0
    assert (out / "reproduce_gamma_0_5.csv").exists()
    assert (out / "reproduce_gamma_4_5.csv").exists()
    assert (out / "verdicts.csv").exists()
    regions = (out / "regions_gamma_0_5.csv").read_text().splitlines()
    assert regions[1] == "beta_start,beta_end,menu,transition_refined"
    # three menu regions for the low-synergy family
    assert len(regions) == 2 + 3
    assert "gamma=0.5" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, beta_range",
    [
        ("sweep", "0.1:2.0:0"),
        ("sweep", "0.1:2.0"),
        ("sweep", "a:b:c"),
        ("sweep", "2.0:0.1:0.1"),
        ("reproduce", "0.5:0.1:0.1"),
        ("sweep", "0.1:2.0:1e-5"),
        ("reproduce", "0.1:2.0:1e-12"),
    ],
)
def test_beta_range_refusal_exit_code(command, beta_range, tmp_path, capsys):
    out = tmp_path / "o"
    argv = [command, "--beta-range", beta_range, "--grid", "513", "--out", str(out)]
    code = main(argv + (["--gamma", "0.5"] if command == "sweep" else []))
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "validation" and "--beta-range" in err["detail"]
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "argv", [["sweep", "--gamma", "0.5"], ["reproduce", "--types", "21"]], ids=["sweep", "reproduce"]
)
def test_library_warnings_pass_through(argv, tmp_path):
    # at gamma=0.5, beta=1.5 the bundles {1} and {1,2} tie as best seller
    argv = argv + ["--grid", "513", "--beta-range", "1.5:1.5:0.1", "--out", str(tmp_path / "o")]
    with pytest.warns(TiedBestSellerWarning):
        assert main(argv) == 0


def test_verify_agrees_with_reproduce_verdicts(tmp_path):
    # verify on a family member's document reproduces that beta's verdict row
    assert main([
        "reproduce", "--out", str(tmp_path / "r"), "--grid", "513", "--types", "51",
        "--beta-range", "0.6:1.0:0.4",
    ]) == 0
    lines = (tmp_path / "r" / "verdicts.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    table = {(row["gamma"], row["beta"]): row for row in rows}
    for beta in (0.6, 1.0):
        path = tmp_path / f"beta_{beta}.json"
        path.write_text(json.dumps(apps.two_item_power_family(beta, 4.5, grid_size=513).document()))
        out = tmp_path / f"verify_{beta}"
        assert main(["verify", "--spec", str(path), "--out", str(out), "--types", "51"]) == 0
        payload = json.loads((out / "verify.json").read_text())
        row = table[(cli._fmt(4.5), cli._fmt(beta))]
        assert row["verdict"] == payload["verdict"]
        assert row["matched_gap"] == cli._fmt(payload["gap"])
        for name in cli._LP_FIELDS:
            assert row[f"lp_{name}"] == cli._fmt(payload[f"lp_{name}"]), name


def test_analyze_hasse_three_item_chain(tmp_path):
    from test_menu import _three_item_chain_doc

    path = tmp_path / "three.json"
    path.write_text(json.dumps(_three_item_chain_doc(grid_size=1025)))
    out = tmp_path / "out"
    assert main(["analyze", "--spec", str(path), "--out", str(out), "--hasse"]) == 0
    payload = json.loads((out / "dominance.json").read_text())
    assert payload["undominated"] == ["{1}", "{1,2}", "{1,2,3}"]
    assert payload["nested"] is True
    dot = (out / "dominance.dot").read_text()
    # covering relations: {2}->{1,2}, {3}->{1,3}, {3}->{2,3},
    # {1,3}->{1,2,3}, {2,3}->{1,2,3}; the hop {3}->{1,2,3} is transitive
    assert dot.count("->") == 5
    assert f"b{0b100} -> b{0b111};" not in dot


def test_analyze_evaluates_price_slope_once_per_bundle(tmp_path, monkeypatch):
    # Full-grid evaluations of v(b, .): the value and inverse-demand rows,
    # then the two ends of dP/dq's finite difference once per bundle, which
    # the plain and cost-adjusted views and the union-elasticity scan share.
    calls = {}
    original = MonomialSum.__call__

    def counting(self, t):
        if np.size(t) == 1025:
            calls[id(self)] = calls.get(id(self), 0) + 1
        return original(self, t)

    monkeypatch.setattr(MonomialSum, "__call__", counting)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(two_item_doc(0.3, 0.5, grid_size=1025)))
    assert main(["analyze", "--spec", str(path), "--out", str(tmp_path / "o"), "--hasse"]) == 0
    assert sorted(calls.values()) == [4, 4, 4]


def test_outputs_byte_identical_across_runs(spec_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["analyze", "--spec", spec_file, "--out", str(out), "--hasse"]) == 0
        assert main(["solve", "--spec", spec_file, "--out", str(out), "--csv"]) == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_lp_records_byte_identical_across_runs(spec_file, tmp_path):
    # verify.json and reproduce's verdict rows carry the LP's rounds, rows
    # and certificate residuals, and repeat byte for byte
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["verify", "--spec", spec_file, "--out", str(out), "--types", "51"]) == 0
        assert main([
            "reproduce", "--out", str(out), "--grid", "513", "--types", "51",
            "--beta-range", "0.3:1.9:0.8",
        ]) == 0
    for name in sorted(p.name for p in outs[0].iterdir()):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    payload = json.loads((outs[0] / "verify.json").read_text())
    assert payload["lp_rounds"] == 1 and payload["lp_rows"] == 4 * 51 - 2
    rows = (outs[0] / "verdicts.csv").read_text().splitlines()
    assert rows[1] == (
        "gamma,beta,verdict,matched_gap,lp_rounds,lp_rows,"
        "lp_ic_violation,lp_stationarity,lp_duality_gap"
    )
    assert len(rows) == 2 + 2 * 3
    for line in rows[2:]:
        assert all(0.0 <= float(x) <= 1e-7 for x in line.split(",")[-3:])
    for key in ("lp_ic_violation", "lp_stationarity", "lp_duality_gap"):
        assert 0.0 <= payload[key] <= 1e-7, key


def _perfbench_layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    loader = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(layers)
    return layers


def test_perfbench_traced_names_resolve():
    # the benchmark's tracer (perfbench/layers.py) rebinds these functions by
    # name, so a rename or deletion here breaks `perfbench/run.py --trace 1`
    layers = _perfbench_layers()
    for mod_name, attr in layers.TRACED:
        obj = importlib.import_module(f"bundleopt.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"bundleopt.{mod_name}.{attr}"


@pytest.mark.parametrize("n_items", [2, 3])
def test_perfbench_lp_metrics_match_oracle(n_items):
    # the benchmark computes LP sizes from m and K and IC violations from the
    # answer alone; both must describe the LP the oracle actually solves
    layers = _perfbench_layers()
    spec = load_spec(random_instance_doc(np.random.default_rng(1), n_items, grid_size=1025))
    instance = DiscretizedInstance.from_spec(spec, 51)
    _c, A, _b = _lp(instance)
    assert layers.lp_size(instance) == (A.shape[0], A.shape[1], A.nnz)
    assert layers.lp_violation(instance, solve_lp(instance)) <= 1e-7
