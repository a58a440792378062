"""Exit codes, config handling, artifact determinism for the CLI."""

import hashlib
import json
import math
import os
import re

import pytest

from farfield import cli, profile1d
from farfield.cli import load_config, main
from farfield.errors import ConfigError

_DATA = os.path.join(os.path.dirname(__file__), "data")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _sha256(path):
    return hashlib.sha256(_read(path)).hexdigest()


# ---------------------------------------------------------------------------
# exit codes

def test_zf_prints_plateau_levels(capsys):
    assert main(["zf", "--f", "abs-sin"]) == 0
    out, err = capsys.readouterr()
    got = [float(s) for s in out.split()]
    want = [0.0, math.pi, 2 * math.pi, 3 * math.pi]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-12
    assert err.startswith("# ")


def test_unknown_nonlinearity_exits_1(capsys):
    assert main(["zf", "--f", "bogus"]) == 1
    assert "input error:" in capsys.readouterr().err


def test_unresolvable_cantor_level_exits_1(tmp_path, capsys):
    assert main(["analyze-f", "--f", "cantor:7", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("input error: cantor level")


def test_missing_required_flag_exits_1(capsys):
    assert main(["profile", "--f", "logistic"]) == 1
    assert "input error:" in capsys.readouterr().err


def test_solver_failure_exits_2(tmp_path, capsys):
    rc = main(["solve-quarter", "--f", "logistic", "--L1", "10", "--L2", "6",
               "--h", "0.5", "--trace", "constant:0.3", "--method", "newton",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "numeric error:" in capsys.readouterr().err


@pytest.mark.parametrize("f, z", [("logistic", "0.99999999995"), ("linear-decay", "0")])
def test_profile_to_a_level_off_the_zero_set_exits_2(tmp_path, capsys, f, z):
    # a profile ends only on a member of f's exact zero set (here {0, 1} and
    # {1}); f(z) = 5e-11 is small, not zero, and f(0) = 1 rules out the
    # zero profile of linear-decay
    rc = main(["profile", "--f", f, "--z", z, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error:")
    assert ("not a zero of f" if float(z) else "zero profile needs f(0) = 0") in err
    assert not os.listdir(tmp_path)


def test_route_disagreement_exits_2(tmp_path, capsys, monkeypatch):
    # with a tolerance no cross-check can meet, the profile's quadrature and
    # RK4 routes disagree: a ConsistencyError, reported and mapped to exit 2
    monkeypatch.setattr(profile1d, "_CROSSCHECK_TOL", 1e-30)
    rc = main(["profile", "--f", "logistic", "--z", "1", "--xi-max", "8",
               "--n", "64", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("consistency error:") and "routes disagree" in err


def test_nan_start_exits_1(tmp_path, capsys):
    rc = main(["solve-quarter", "--f", "logistic", "--L1", "4", "--L2", "4",
               "--h", "0.5", "--u0", "nan", "--no-plots", "--out", str(tmp_path)])
    assert rc == 1
    assert "input error: u0 contains non-finite values" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_nan_table_exits_1(tmp_path, capsys):
    table = tmp_path / "f.csv"
    table.write_text("0,1\n1,nan\n2,-1\n")
    rc = main(["analyze-f", "--f", f"table:{table}", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "input error: table: s and f columns must be finite" in capsys.readouterr().err


def test_nan_profile_launch_exits_2(tmp_path, capsys, monkeypatch):
    real = profile1d.integrate_profile_ode

    def nan_sample(*args, **kwargs):
        v, w, res = real(*args, **kwargs)
        v = v.copy()
        v[v.size // 2] = math.nan
        return v, w, res

    monkeypatch.setattr(profile1d, "integrate_profile_ode", nan_sample)
    rc = main(["profile", "--f", "logistic", "--z", "1", "--xi-max", "8",
               "--n", "64", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("consistency error:") and "disagree by nan" in err


@pytest.mark.parametrize("argv", [
    ["zf", "--f", "abs-sin", "--out", "x"],
    ["solve-quarter", "--f", "logistic", "--threads", "2"],
    ["solve-half", "--f", "logistic", "--seed", "1"],
    ["trajectory", "--f", "logistic", "--dump-fields"],
    ["slide", "--f", "logistic", "--z", "1", "--eps", "0.1", "--from", "8,6",
     "--to", "9,6", "--n-shifts", "3"],
    ["liouville-sweep", "--f", "abs-sin", "--domain", "box", "--no-plots"],
    ["plot", "--input", "a.json", "--output", "b.svg", "--out", "x"],
    ["run", "--config", "c.json", "--no-plots"],
])
def test_flags_a_command_does_not_read_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve-quarter", "--f", "logistic", "--L1", "nan"],
    ["solve-quarter", "--f", "logistic", "--L1", "inf"],
    ["liouville-sweep", "--f", "abs-sin", "--domain", "box", "--L", "nan"],
    ["profile", "--f", "logistic", "--z", "1", "--xi-max", "nan"],
    ["eigen", "--N", "2", "--R", "nan"],
    ["slide", "--f", "logistic", "--L1", "20", "--L2", "12", "--h", "0.5",
     "--z", "1", "--eps", "0.5", "--from", "8,6", "--to", "9,6", "--steps", "0"],
    ["trajectory", "--f", "logistic", "--L1", "8", "--L2", "4", "--h", "0.5",
     "--n-shifts", "0"],
    ["solve-quarter", "--f", "logistic", "--L1", "4", "--L2", "4", "--h", "0.5",
     "--tol", "-1"],
    ["solve-quarter", "--f", "logistic", "--L1", "8", "--L2", "4", "--h", "0.5",
     "--conv-tol", "nan"],
    ["solve-quarter", "--f", "logistic", "--L1", "4", "--L2", "4", "--h", "0.5",
     "--trace", "constant:abc"],
    ["solve-quarter", "--f", "logistic", "--L1", "4", "--L2", "4", "--h", "0.5",
     "--trace", "bump:1,x,2"],
    ["solve-half", "--f", "logistic", "--L1", "4", "--L2", "4", "--h", "0.5",
     "--trace", "profile:x"],
    ["solve-quarter", "--f", "logistic", "--L1", "4", "--L2", "4", "--h", "0.5",
     "--trace", "table:" + os.path.join(_DATA, "trace_text_row.csv")],
    ["solve-quarter", "--f", "logistic", "--L1", "4", "--L2", "4", "--h", "0.5",
     "--trace", "table:" + os.path.join(_DATA, "trace_short_row.csv")],
    ["slide", "--f", "logistic", "--L1", "20", "--L2", "12", "--h", "0.5",
     "--z", "1", "--eps", "0.5", "--from", "1", "--to", "9,6"],
    ["slide", "--f", "logistic", "--L1", "20", "--L2", "12", "--h", "0.5",
     "--z", "1", "--eps", "0.5", "--from", "8,6", "--to", "a,b"],
    ["bubble", "--f", "logistic", "--z", "1", "--eps", "0.1", "--N", "0"],
    ["bubble", "--f", "logistic", "--z", "1", "--eps", "0.1", "--N", "-1"],
    ["bubble", "--f", "logistic", "--z", "5", "--eps", "0.1"],
])
def test_bad_numeric_flag_exits_1(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("command", ["solve-quarter", "solve-half", "trajectory"])
@pytest.mark.parametrize("flag", [("--n-shifts", "0"), ("--conv-tol", "nan")])
def test_bad_ladder_flag_exits_1_before_the_solve(command, flag, tmp_path, capsys,
                                                  monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the ladder flags must be checked before the solve")

    monkeypatch.setattr(cli, "solve_field", refuse)
    out = tmp_path / "out"
    argv = [command, "--f", "logistic", "--L1", "8", "--L2", "4", "--h", "0.5",
            *flag, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("input error:")
    assert not out.exists()


def test_bad_ladder_config_exits_1_before_the_solve(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the ladder settings must be checked before the solve")

    monkeypatch.setattr(cli, "solve_field", refuse)
    out = tmp_path / "out"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"analysis": {"n_shifts": 0},
                             "output": {"dir": str(out)}}))
    assert main(["run", "--config", str(p)]) == 1
    assert capsys.readouterr().err.startswith("input error:")
    assert not out.exists()


def test_unreadable_input_exits_3(tmp_path, capsys):
    rc = main(["plot", "--input", str(tmp_path / "nope.json"),
               "--output", str(tmp_path / "x.svg")])
    assert rc == 3
    assert "os error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files

def test_config_defaults_fill_missing_sections(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{}")
    cfg = load_config(str(p))
    assert cfg["domain"]["kind"] == "quarter"
    assert cfg["solver"]["tol"] == 1e-9


def test_config_round_trip(tmp_path):
    p1 = tmp_path / "a.json"
    p1.write_text(json.dumps({"solver": {"tol": 1e-7}, "domain": {"h": 0.5}}))
    cfg = load_config(str(p1))
    assert cfg["solver"]["tol"] == 1e-7
    assert cfg["domain"]["h"] == 0.5
    p2 = tmp_path / "b.json"
    p2.write_text(json.dumps(cfg))
    assert load_config(str(p2)) == cfg


def test_config_syntax_error_reports_the_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n"solver": {}\n"domain": {}\n}')
    with pytest.raises(ConfigError) as e:
        load_config(str(p))
    assert ":3:" in str(e.value)


def test_config_rejects_unknown_names(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"bogus": {}}))
    with pytest.raises(ConfigError, match="unknown section 'bogus'"):
        load_config(str(p))
    p.write_text(json.dumps({"solver": {"bogus": 1}}))
    with pytest.raises(ConfigError, match="unknown key 'bogus' in section 'solver'"):
        load_config(str(p))
    p.write_text(json.dumps({"solver": 5}))
    with pytest.raises(ConfigError, match="must be an object"):
        load_config(str(p))
    p.write_text(json.dumps({"seed": 0}))
    with pytest.raises(ConfigError, match="unknown section 'seed'"):
        load_config(str(p))
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError, match="top level must be an object"):
        load_config(str(p))


_WRONG_TYPES = [
    ({"analysis": {"n_shifts": "8"}}, "analysis.n_shifts must be a number (got string)"),
    ({"solver": {"tol": "1e-9"}}, "solver.tol must be a number (got string)"),
    ({"domain": {"L1": "60"}}, "domain.L1 must be a number (got string)"),
    ({"domain": {"h": True}}, "domain.h must be a number (got boolean)"),
    ({"domain": {"h": None}}, "domain.h must be a number (got null)"),
    ({"domain": {"trace": 0.5}}, "domain.trace must be a string (got number)"),
    ({"output": {"plots": 1}}, "output.plots must be a boolean (got number)"),
    ({"nonlinearity": {"s_max": "4"}}, "nonlinearity.s_max must be a number or null (got string)"),
    ({"domain": {"u0": [0.5]}}, "domain.u0 must be a number or null (got array)"),
    ({"solver": {"method": {}}}, "solver.method must be a string (got object)"),
]


@pytest.mark.parametrize("raw, message", _WRONG_TYPES,
                         ids=[m.split()[0] + "-" + m.split()[-1][:-1] for _, m in _WRONG_TYPES])
def test_config_value_of_the_wrong_type_exits_1(tmp_path, capsys, raw, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**raw, "output": {**raw.get("output", {}),
                                               "dir": str(tmp_path / "out")}}))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(p))
    assert main(["run", "--config", str(p)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_run_rejects_the_tol_f_key(tmp_path, capsys):
    # the hypothesis checks read f's exact zero set and take no tolerance
    out = tmp_path / "out"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"analysis": {"tol_f": 1e-10}, "output": {"dir": str(out)}}))
    assert main(["run", "--config", str(p)]) == 1
    assert "unknown key 'tol_f' in section 'analysis'" in capsys.readouterr().err
    assert not out.exists()


def test_config_takes_numbers_and_null_where_the_default_is_null(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"nonlinearity": {"s_max": 4}, "domain": {"u0": None, "L1": 60}}))
    cfg = load_config(str(p))
    assert (cfg["nonlinearity"]["s_max"], cfg["domain"]["u0"], cfg["domain"]["L1"]) == (4, None, 60)


def test_config_errors_exit_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "no such config file" in err


# ---------------------------------------------------------------------------
# solve artifacts

_SOLVE_ARGS = ["solve-quarter", "--f", "linear-decay", "--L1", "12",
               "--L2", "6", "--h", "0.5", "--trace", "constant:0.5"]


def test_solve_quarter_writes_the_artifact_set(tmp_path, capsys):
    out = tmp_path / "s"
    rc = main(_SOLVE_ARGS + ["--dump-fields", "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["decay.svg", "field.csv",
                                       "solve.json", "trajectory.json"]
    text = capsys.readouterr().out
    assert "far-field limit: level 1 (converged" in text
    assert "residual" in text
    summary = json.loads(_read(out / "solve.json"))
    assert set(summary) == {"kind", "f", "grid", "boundary", "method",
                            "iterations", "residual", "out_of_window",
                            "flow_steps", "flow_capped", "handoff", "wall_time_ms"}
    assert summary["kind"] == "quarter"
    assert summary["flow_steps"] > 0 and summary["flow_capped"] is False
    assert not summary["out_of_window"]


def test_solve_json_records_the_handoff(tmp_path):
    # the quarter job's flow reaches tol; on the cantor:3 flat interval the
    # flow stops contracting and Newton finishes
    quarter, flat = tmp_path / "q", tmp_path / "c"
    assert main(_SOLVE_ARGS + ["--no-plots", "--out", str(quarter)]) == 0
    summary = json.loads(_read(quarter / "solve.json"))
    assert summary["handoff"] is None and summary["iterations"] == 0
    assert main(["solve-half", "--f", "cantor:3", "--L1", "8", "--L2", "4", "--h", "0.5",
                 "--trace", "constant:0.99", "--u0", "0.97", "--no-plots",
                 "--out", str(flat)]) == 0
    summary = json.loads(_read(flat / "solve.json"))
    assert set(summary["handoff"]) == {"residual", "ratio"}
    assert summary["residual"] <= 1e-9 < summary["handoff"]["residual"]
    assert summary["iterations"] >= 1


def test_successive_calls_share_no_flag_state(tmp_path):
    # main reuses one parser: a flag given to one call is not seen by the next
    dumped, plain = tmp_path / "d", tmp_path / "p"
    assert main(_SOLVE_ARGS + ["--dump-fields", "--no-plots", "--out", str(dumped)]) == 0
    assert main(_SOLVE_ARGS + ["--out", str(plain)]) == 0
    assert sorted(os.listdir(dumped)) == ["field.csv", "solve.json", "trajectory.json"]
    assert sorted(os.listdir(plain)) == ["decay.svg", "solve.json", "trajectory.json"]


def test_no_plots_suppresses_the_svg(tmp_path):
    out = tmp_path / "s"
    assert main(_SOLVE_ARGS + ["--no-plots", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["solve.json", "trajectory.json"]


def test_solve_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_SOLVE_ARGS + ["--dump-fields", "--out", str(a)]) == 0
    assert main(_SOLVE_ARGS + ["--dump-fields", "--out", str(b)]) == 0
    for name in ("field.csv", "trajectory.json", "decay.svg"):
        assert _read(a / name) == _read(b / name)
    ja = json.loads(_read(a / "solve.json"))
    jb = json.loads(_read(b / "solve.json"))
    ja.pop("wall_time_ms")
    jb.pop("wall_time_ms")
    assert ja == jb


# ---------------------------------------------------------------------------
# analysis commands

def test_analyze_f_prints_hypothesis_verdicts(tmp_path, capsys):
    rc = main(["analyze-f", "--f", "logistic", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hypothesis h1: satisfied" in out
    assert "hypothesis h2: violated" in out
    assert "hypothesis h3: satisfied" in out
    report = json.loads(_read(tmp_path / "analysis.json"))
    assert report["hypotheses"]["h1"] is True
    assert report["reachable_levels"]["points"] == pytest.approx([0.0, 1.0])


def test_profile_command_writes_table_and_summary(tmp_path, capsys):
    rc = main(["profile", "--f", "logistic", "--z", "1", "--xi-max", "8",
               "--n", "64", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "profile.csv").exists()
    summary = json.loads(_read(tmp_path / "profile.json"))
    assert set(summary) == {"z", "slope0", "crosscheck", "xi_attained",
                            "xi_max", "n"}
    assert summary["slope0"] == pytest.approx(1 / math.sqrt(3), abs=1e-10)
    assert "floor slope" in capsys.readouterr().out


def test_eigen_command_writes_summary(tmp_path, capsys):
    rc = main(["eigen", "--N", "2", "--R", "1", "--n", "512",
               "--out", str(tmp_path)])
    assert rc == 0
    val = json.loads(_read(tmp_path / "eigen.json"))["value"]
    assert abs(val - 5.78319) < 1e-3
    assert "principal eigenvalue" in capsys.readouterr().out


def test_slide_command_reports_domination(tmp_path, capsys):
    rc = main(["slide", "--f", "logistic", "--trace", "constant:0.1",
               "--L1", "16", "--L2", "12", "--h", "0.5",
               "--z", "1", "--eps", "0.1", "--from", "8,6", "--to", "9,6",
               "--steps", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert "field dominates the cap" in capsys.readouterr().out
    rep = json.loads(_read(tmp_path / "slide.json"))
    assert rep["ok"] is True
    assert rep["min_margin"] > 0
    assert len(rep["margins"]) == 3


def test_trajectory_command_on_a_constant_strip(tmp_path, capsys):
    rc = main(["trajectory", "--f", "linear-decay", "--kind", "half",
               "--L1", "12", "--L2", "4", "--h", "0.5",
               "--trace", "constant:1", "--out", str(tmp_path)])
    assert rc == 0
    assert "trajectory: converged, level 1.0" in capsys.readouterr().out
    assert (tmp_path / "trajectory.json").exists()


def test_sweep_command_banner_and_report(tmp_path, capsys):
    rc = main(["liouville-sweep", "--f", "abs-sin", "--domain", "box",
               "--L", "8", "--h", "0.5", "--trials", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "note: results on a compact surrogate domain" in out
    assert "box sweep (3 trials, seed 0): constant: 3" in out
    rep = json.loads(_read(tmp_path / "sweep_box.json"))
    assert rep["n_trials"] == 3
    assert rep["counts"] == {"constant": 3}


def test_sweep_thread_flag_does_not_change_the_report(tmp_path, capsys):
    # trials run serially: --threads is accepted only at 1
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["liouville-sweep", "--f", "abs-sin", "--domain", "box",
            "--L", "8", "--h", "0.5", "--trials", "3"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--threads", "1", "--out", str(b)]) == 0
    assert _read(a / "sweep_box.json") == _read(b / "sweep_box.json")
    capsys.readouterr()
    assert main(base + ["--threads", "2", "--out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr().err.startswith("input error:")


# ---------------------------------------------------------------------------
# plot command

def test_plot_rerenders_the_solve_figure_byte_identically(tmp_path):
    out = tmp_path / "s"
    assert main(_SOLVE_ARGS + ["--out", str(out)]) == 0
    re = tmp_path / "re.svg"
    rc = main(["plot", "--input", str(out / "trajectory.json"),
               "--output", str(re)])
    assert rc == 0
    assert _read(re) == _read(out / "decay.svg")


def test_plot_rejects_reports_without_a_ladder(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"distances": []}))
    assert main(["plot", "--input", str(p), "--output", str(tmp_path / "x.svg")]) == 1
    assert "no distance ladder" in capsys.readouterr().err
    p.write_text(json.dumps([1, 2]))
    assert main(["plot", "--input", str(p), "--output", str(tmp_path / "x.svg")]) == 1
    assert "expected a report object" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# full pipeline

def test_run_pipeline_writes_manifest_with_matching_digests(tmp_path, capsys):
    cfg = {"nonlinearity": {"spec": "linear-decay"},
           "domain": {"L1": 12.0, "L2": 6.0, "h": 0.5, "trace": "constant:0.5"},
           "analysis": {"n_shifts": 8},
           "output": {"dir": str(tmp_path / "out")}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 0
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == ["analysis.json", "decay.svg",
                                       "manifest.json", "profile_0.csv",
                                       "solve.json", "trajectory.json"]
    manifest = json.loads(_read(out / "manifest.json"))
    assert list(manifest) == ["files"]
    for name, digest in manifest["files"].items():
        assert _sha256(out / name) == digest
    levels = json.loads(_read(out / "analysis.json"))["reachable_levels"]
    assert levels["points"] == pytest.approx([1.0])
    text = capsys.readouterr().out
    assert "far-field limit: level 1 (converged, final distance" in text
    assert "residual" in text
    solve = json.loads(_read(out / "solve.json"))
    assert solve["f"] == "linear-decay"
