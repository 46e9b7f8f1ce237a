"""End-to-end CLI runs: artifacts, determinism, exit codes."""

import importlib
import importlib.util
import json
import os
import re
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

from support import (
    csv_text_reference,
    random_instance_doc,
    rounding_noise_doc,
    single_item_doc,
    two_item_doc,
)


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


def test_parser_carries_nothing_between_calls(spec_file, tmp_path):
    # main parses with one parser per process; an option of one call must not
    # reach the next
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["solve", "--spec", spec_file, "--out", str(first), "--csv"]) == 0
    assert main(["solve", "--spec", spec_file, "--out", str(second)]) == 0
    assert (first / "allocation.csv").exists()
    assert (second / "solution.json").exists() and not list(second.glob("*.csv"))
    assert cli.build_parser() is cli.build_parser()


def _csv_fields(line):
    # bundle labels such as {1,2} are written unquoted: split outside braces
    return re.split(r",(?![^{]*\})", line)


def test_solve_csv_shape(spec_file, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--spec", spec_file, "--out", str(out), "--csv"]) == 0
    menu = {row["bundle"] for row in json.loads((out / "solution.json").read_text())["menu"]}
    tables = {}
    for name in ("allocation.csv", "virtual_surplus.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("# spec_sha256=") and lines[0].endswith(" grid_size=1025")
        header, rows = _csv_fields(lines[1]), [_csv_fields(line) for line in lines[2:]]
        assert len(rows) == 1025, name
        assert all(len(row) == len(header) for row in rows), name
        tables[name] = header, rows
    assert tables["allocation.csv"][0] == ["t", "bundle", "payment", "utility"]
    assert tables["virtual_surplus.csv"][0] == ["t", "{1}", "{2}", "{1,2}"]
    sold = {row[1] for row in tables["allocation.csv"][1]}
    assert menu <= sold <= menu | {"{}"}


_AWKWARD = [
    np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2, 1.0, -2.5e-7]),
    [np.float64(0.1 + 0.2), 1e16, np.float64(-0.0), float("nan"), 5e-324,
     np.float64(np.inf), 3.0, np.float64(1 / 3), -1e-300],
    [True, np.True_, False, np.False_, True, np.bool_(False), False, True, True],
    [0, 1, -7, np.int64(12), 2**70, np.int32(-3), 5, 6, 7],
    ["{}", "{1,2}", "a|b", "", "nan", "VALID", "x", "y", "z"],
    np.arange(9, dtype=np.float32) / 3,
    np.arange(9),
]


@pytest.mark.parametrize(
    "columns",
    [
        _AWKWARD,
        [_AWKWARD[0], _AWKWARD[4], _AWKWARD[0][::-1]],
        [np.array([0.5])],
        [np.array([]), []],
        [],
    ],
    ids=["mixed", "float-string-float", "one-value", "no-rows", "no-columns"],
)
def test_csv_text_matches_per_value_reference(columns):
    header = [f"c{k}" for k in range(len(columns))]
    text = cli._csv_text("prov", header, columns)
    assert text == csv_text_reference("prov", header, columns)
    assert text.count("\n") == 2 + min(map(len, columns), default=0)


def test_csv_artifacts_match_per_value_reference(tmp_path, monkeypatch):
    # every CSV that analyze, solve --csv, sweep, quality and reproduce write
    # is byte for byte what the per-value writer makes of the same columns
    from test_menu import _three_item_chain_doc

    docs = {"two": two_item_doc(0.3, 0.5, grid_size=257),
            "three": _three_item_chain_doc(grid_size=257),
            "quality": {"qualities": [1.0, 2.0, 3.0], "costs": [0.2, 0.2, 0.9],
                        "values": {"kind": "multiplicative"},
                        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                        "grid_size": 257}}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    runs = [
        ["analyze", "--spec", str(tmp_path / "two.json")],
        ["analyze", "--spec", str(tmp_path / "three.json")],
        ["solve", "--spec", str(tmp_path / "two.json"), "--csv"],
        ["solve", "--spec", str(tmp_path / "three.json"), "--csv"],
        ["sweep", "--gamma", "0.5", "--beta-range", "0.3:1.2:0.45", "--grid", "257"],
        ["quality", "--spec", str(tmp_path / "quality.json")],
        ["reproduce", "--grid", "257", "--types", "21", "--beta-range", "0.3:1.1:0.8"],
    ]
    csv_names = set()
    for k, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / f"new{k}")]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_csv_text", csv_text_reference)
            assert main(argv + ["--out", str(tmp_path / f"ref{k}")]) == 0
        names = sorted(p.name for p in (tmp_path / f"new{k}").iterdir())
        assert names == sorted(p.name for p in (tmp_path / f"ref{k}").iterdir())
        for name in names:
            new, ref = (tmp_path / f"{side}{k}" / name for side in ("new", "ref"))
            assert new.read_bytes() == ref.read_bytes(), (argv[0], name)
        csv_names |= {name for name in names if name.endswith(".csv")}
    assert {"summary.csv", "demand_1-2-3.csv", "allocation.csv", "virtual_surplus.csv",
            "sweep.csv", "quality.csv", "reproduce_gamma_4_5.csv", "regions_gamma_0_5.csv",
            "verdicts.csv"} <= csv_names


def test_solve_nesting_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(two_item_doc(0.5, 4.5, grid_size=1025)))
    code = main(["solve", "--spec", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "nesting"


@pytest.mark.parametrize("command, code", [("analyze", 0), ("solve", 3)])
def test_rounding_noise_is_no_validation_failure(command, code, tmp_path, capsys):
    # {1,2} - {1} = 1e-6 t is increasing, so the rounding of its 3e8-sized grid
    # rows is no validation failure; solve still exits 3, as that rounding
    # gives the incremental profit several peaks, a validation warning
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(rounding_noise_doc()))
    assert main([command, "--spec", str(path), "--out", str(tmp_path / "o")]) == code
    if command == "solve":
        assert "INVALID: validation warnings present" in capsys.readouterr().out


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
    # solve refuses the menu (exit 3, the input is at fault); verify
    # benchmarks the LP against the best nested menu instead, with a finite profit
    from test_menu import NON_MONOTONE_ENVELOPE_DOC

    path = tmp_path / "problem.json"
    path.write_text(json.dumps(NON_MONOTONE_ENVELOPE_DOC))
    assert main(["solve", "--spec", str(path), "--out", str(tmp_path / "s")]) == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "monotonicity" and "not monotone" in err["detail"]
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


_SUB_CELL_DIP = {"n_items": 2, "distribution": _UNIFORM, "grid_size": 33,
                 "values": {"[1]": {"terms": [{"coef": 1.0, "exp": 1.0}]},
                            "[1,2]": {"terms": [{"coef": 0.98, "exp": 1.0},
                                                {"coef": 1.0, "exp": 2.0}]}}}
_SUB_CELL_DIP_DETAIL = "monotonicity violation: value of {1} exceeds value of {1,2} at t=0.01"


@pytest.mark.parametrize(
    "command, doc, detail",
    [
        ("screening", {"qualities": [1.0], "distribution": _UNIFORM,
                       "actions": [{"terms": [{"coef": -0.3, "exp": 1.0}], "const": 0.5}]},
         "strictly increasing"),
        ("screening", {"qualities": [1.0], "distribution": _UNIFORM, "actions": [{"const": 0.0}]},
         "action 1 is identically zero"),
        ("quality", _quality(costs=[1.5, 1.6]), "interior sales volumes"),
        # {1} = t exceeds {1,2} = 0.98t + t^2 below t = 0.02, between the
        # spec's grid points: every command refuses it at the dip's bottom
        *(pytest.param(command, _SUB_CELL_DIP, _SUB_CELL_DIP_DETAIL, id=f"{command}-sub-cell-dip")
          for command in ("analyze", "solve", "verify")),
    ],
)
def test_refused_assumption_exit_code(command, doc, detail, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--spec", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip())
    assert err["error"] == "validation" and detail in err["detail"]


_SCREENING_ONE = {"qualities": [1.0], "distribution": _UNIFORM,
                  "actions": [{"terms": [{"coef": 0.3, "exp": 3.0}]}]}


@pytest.mark.parametrize(
    "argv, doc, grid",
    [
        (["solve", "--grid", "0"], _one_item(), 0),
        (["solve"], _one_item(grid_size=0), 0),
        (["solve", "--grid", "-5"], _one_item(), -5),
        (["sweep", "--gamma", "0.5", "--beta-range", "0.5:0.6:0.1", "--grid", "0"], None, 0),
        (["quality"], _quality(grid_size=0), 0),
        (["screening"], dict(_SCREENING_ONE, grid_size=0), 0),
        (["screening"], dict(_SCREENING_ONE, grid_size=5), 5),
    ],
    ids=["solve-flag0", "solve-file0", "solve-flag-5", "sweep-flag0", "quality-file0",
         "screening-file0", "screening-file5"],
)
def test_grid_below_floor_exit_code(argv, doc, grid, tmp_path, capsys):
    # a grid below 33 points is refused from the flag and from every kind of
    # problem file; a grid of 0 is not read as "absent"
    if doc is not None:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--spec", str(path)]
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip())
    detail = f"grid_size={grid} too small for reliable validation"
    assert err == {"error": "validation", "detail": detail}
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize(
    "command, doc",
    [("quality", _quality(grid_size=257)), ("screening", dict(_SCREENING_ONE, grid_size=257))],
)
def test_document_grid_has_no_flag(command, doc, tmp_path, capsys):
    # a quality or screening document's grid_size is the only grid it runs
    # on, so --grid is refused rather than silently ignored
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main([command, "--spec", str(path), "--grid", "0", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
            "verify", random_instance_doc(np.random.default_rng(0), 6, grid_size=1025), 2500,
            "the oracle at m=2500 with 6 items (value table, m x m arrays) needs 101.3 MB "
            "(limit 67.1 MB)",
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
        (["verify", "--types", "2500"], "needs 101.3 MB (limit 67.1 MB)"),
        # the answer at m = 301 fits, but the full LP written out does not
        (["verify", "--types", "301", "--dump-lp"],
         "the oracle LP at m=301 with 63 sellable bundles and 90902 rows needs 141.7 MB"),
        (["reproduce", "--grid", "513", "--types", "5"], "m=5 outside supported range"),
    ],
    ids=["verify", "verify-dump-lp", "reproduce"],
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


def test_verify_six_items_at_m_301_in_closed_form(tmp_path, capsys):
    # only the rows an answer builds count against the LP budget: the full LP
    # of 63 bundles at m = 301 would need 141.7 MB, the closed form builds none
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(random_instance_doc(np.random.default_rng(0), 6, grid_size=1025)))
    out = tmp_path / "o"
    assert main(["verify", "--spec", str(path), "--out", str(out), "--types", "301"]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["lp_rounds"] == 0 and payload["verdict"] == "CONFIRMED"


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
    # analyze, solve, sweep, quality and screening need numpy only, and so does a
    # verify whose LP the closed form answers; verify loads scipy for an LP that
    # needs HiGHS.  Run in a fresh interpreter: this one has scipy loaded.
    ironed = single_item_doc(grid_size=1025)  # v = -0.1 - t + 3t^2 falls below t = 1/6
    ironed["values"]["[1]"]["terms"] = [
        {"coef": -0.1, "exp": 0.0}, {"coef": -1.0, "exp": 1.0}, {"coef": 3.0, "exp": 2.0}
    ]
    docs = {
        "problem": two_item_doc(0.3, 0.5, grid_size=1025),
        "ironed": ironed,
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
        ["verify", "--spec", str(tmp_path / "ironed.json"), "--types", "21", *out],
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
    # 63 sellable bundles at m=201: 12,864 LP variables
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
    # Full-grid evaluations of v(b, .) and v'(b, .): the value and
    # inverse-demand rows, then v' at the marginal types once per bundle for
    # dP/dq, which the plain and cost-adjusted views and the union-elasticity
    # scan share.
    calls = {}

    def counted(name):
        original = getattr(MonomialSum, name)

        def counting(self, t, powers=None):
            if np.size(t) == 1025:
                calls[id(self), name] = calls.get((id(self), name), 0) + 1
            return original(self, t, powers)

        monkeypatch.setattr(MonomialSum, name, counting)

    counted("__call__")
    counted("slope")
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(two_item_doc(0.3, 0.5, grid_size=1025)))
    assert main(["analyze", "--spec", str(path), "--out", str(tmp_path / "o"), "--hasse"]) == 0
    counts = sorted((name, n) for (_, name), n in calls.items())
    assert counts == [("__call__", 2)] * 3 + [("slope", 1)] * 3


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
    assert payload["lp_rounds"] == 0 and payload["lp_rows"] == 2 * 51
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
