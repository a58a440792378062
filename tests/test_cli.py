"""Exit codes, config handling, artifact determinism for the CLI."""

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys

import pytest
from scipy.optimize import brentq
from scipy.special import jv

from farfield import cli, liouville, profile1d
from farfield.cli import load_config, main
from farfield.errors import ConfigError, NumericError
from farfield.nonlinearity import make
from farfield.sliding import radial_bubble

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


def test_zero_profile_trace_needs_a_zero_at_the_origin(tmp_path, capsys):
    # linear-decay has f(0) = 1, so no zero profile exists to be its trace
    rc = main(["solve-quarter", "--f", "linear-decay", "--L1", "8", "--L2", "4",
               "--h", "0.5", "--trace", "profile:0", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "zero profile needs f(0) = 0" in err


@pytest.mark.parametrize("argv", [
    # r^(N-1) overflows the cap energy at N = 200, and the area of the unit
    # sphere itself at N = 400
    pytest.param(["bubble", "--f", "logistic", "--z", "1", "--eps", "0.1", "--N", N],
                 id=N) for N in ("200", "400")
] + [
    # the ball's eigenvalue (j/R)^2 underflows to 0 at R = 1e200 and to a
    # subnormal at 1e155, and overflows at 1e-200 and 1e-155
    pytest.param(["eigen", "--N", "2", "--R", R], id="eigen-R" + R)
    for R in ("1e200", "1e155", "1e-200", "1e-155")
])
def test_bubble_energy_that_overflows_exits_2(tmp_path, capsys, argv):
    # a value no positive normal float holds is refused before its JSON is written
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("numeric error:")
    assert not os.listdir(tmp_path)


def test_route_disagreement_exits_2(tmp_path, capsys, monkeypatch):
    # with a tolerance no cross-check can meet, the profile's xi inversion and
    # RK4 routes disagree: a ConsistencyError, reported and mapped to exit 2
    monkeypatch.setattr(profile1d, "_CROSSCHECK_TOL", 1e-30)
    rc = main(["profile", "--f", "logistic", "--z", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("consistency error:") and "routes disagree" in err


def test_nan_start_exits_1(tmp_path, capsys):
    rc = main(["solve-quarter", "--f", "logistic", "--L1", "4", "--L2", "4",
               "--h", "0.5", "--u0", "nan", "--out", str(tmp_path)])
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
    real = profile1d.integrate

    def nan_step_end(*args, **kwargs):
        res = real(*args, **kwargs)
        res.step_y0s[len(res.step_y0s) // 2] = math.nan
        return res

    monkeypatch.setattr(profile1d, "integrate", nan_step_end)
    rc = main(["profile", "--f", "logistic", "--z", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("consistency error:") and "disagree by nan" in err


@pytest.mark.parametrize("argv", [
    ["zf", "--f", "abs-sin", "--out", "x"],
    ["solve-quarter", "--f", "logistic", "--threads", "2"],
    ["solve-half", "--f", "logistic", "--seed", "1"],
    ["solve-half", "--f", "logistic", "--kind", "half"],
    ["slide", "--f", "logistic", "--z", "1", "--eps", "0.1", "--from", "8,6",
     "--to", "9,6", "--n-shifts", "3"],
    ["liouville-sweep", "--f", "abs-sin", "--domain", "box", "--no-plots"],
    ["eigen", "--N", "2", "--R", "1", "--no-plots"],
    ["run", "--config", "c.json", "--no-plots"],
    # the shift ladder is data in trajectory.json; no solve draws it
    ["solve-quarter", "--f", "logistic", "--no-plots"],
    ["solve-half", "--f", "logistic", "--no-plots"],
    # far-field detection converges at the fixed distance trajectory._CONV_TOL
    ["solve-quarter", "--f", "logistic", "--conv-tol", "1e-2"],
    ["solve-half", "--f", "logistic", "--conv-tol", "1e-2"],
    # the shift ladder, the profile grid and the slide path are sampled at
    # fixed resolutions, and the eigenvalue is a closed form of fixed order
    ["solve-quarter", "--f", "logistic", "--n-shifts", "16"],
    ["solve-half", "--f", "logistic", "--n-shifts", "16"],
    ["profile", "--f", "logistic", "--z", "1", "--xi-max", "20"],
    ["profile", "--f", "logistic", "--z", "1", "--n", "2048"],
    ["eigen", "--N", "2", "--R", "1", "--n", "4096"],
    ["slide", "--f", "logistic", "--z", "1", "--eps", "0.1", "--from", "8,6",
     "--to", "9,6", "--steps", "61"],
])
def test_flags_a_command_does_not_read_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve-quarter", "--f", "logistic", "--L1", "nan"],
    ["solve-quarter", "--f", "logistic", "--L1", "inf"],
    ["liouville-sweep", "--f", "abs-sin", "--domain", "box", "--L", "nan"],
    ["liouville-sweep", "--f", "abs-sin", "--domain", "box", "--L", "8", "--h", "0.25",
     "--trials", "1", "--seed", "-1"],
    ["profile", "--f", "logistic", "--z", "nan"],
    ["eigen", "--N", "2", "--R", "nan"],
    ["slide", "--f", "logistic", "--L1", "20", "--L2", "12", "--h", "0.5",
     "--z", "1", "--eps", "0.5", "--from", "0.5,6", "--to", "9,6"],
    ["solve-half", "--f", "logistic", "--L1", "8", "--L2", "4", "--h", "0.3"],
    ["solve-quarter", "--f", "logistic", "--L1", "4", "--L2", "4", "--h", "0.5",
     "--tol", "-1"],
    ["eigen", "--N", "0", "--R", "1"],
    ["eigen", "--N", "2001", "--R", "1"],
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
    ["profile", "--f", "logistic", "--z", "-1"],
    ["profile", "--f", "logistic", "--z=-inf"],
    ["solve-quarter", "--f", "logistic", "--L1", "4", "--L2", "4", "--h", "0.5",
     "--trace", "table:" + os.path.join(_DATA, "no_such_trace.csv")],
])
def test_bad_numeric_flag_exits_1(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("command", ["solve-quarter", "solve-half"])
@pytest.mark.parametrize("flag", [("--n-shifts", "0"), ("--n-shifts", "2.5")])
def test_bad_ladder_flag_exits_1_before_the_solve(command, flag, tmp_path, capsys,
                                                  monkeypatch):
    # the ladder has a fixed number of rungs: the flag is refused, with any
    # value, before the solve
    def refuse(*args, **kwargs):
        raise AssertionError("the ladder flags must be checked before the solve")

    monkeypatch.setattr(cli, "solve_field", refuse)
    out = tmp_path / "out"
    argv = [command, "--f", "logistic", "--L1", "8", "--L2", "4", "--h", "0.5",
            *flag, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "unrecognized arguments: --n-shifts" in err
    assert not out.exists()


def test_bad_ladder_config_exits_1_before_the_solve(tmp_path, capsys, monkeypatch):
    # the config's analysis section, whose one key was n_shifts, is gone
    def refuse(*args, **kwargs):
        raise AssertionError("the ladder settings must be checked before the solve")

    monkeypatch.setattr(cli, "solve_field", refuse)
    out = tmp_path / "out"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"analysis": {"n_shifts": 16},
                             "output": {"dir": str(out)}}))
    assert main(["run", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "unknown section 'analysis'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["trajectory", "--f", "linear-decay", "--kind", "half"],
    ["solve-quarter", "--f", "logistic", "--method", "monotone"],
    ["plot", "--input", "a.json", "--output", "b.svg"],
])
def test_removed_command_and_method_exit_1(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "invalid choice" in err
    assert not os.listdir(tmp_path)


def test_unreadable_input_exits_3(tmp_path, capsys):
    taken = tmp_path / "file"        # an output directory that is a regular file
    taken.write_text("")
    rc = main(["analyze-f", "--f", "logistic", "--out", str(taken)])
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
    ({"solver": {"tol": "1e-9"}}, "solver.tol must be a number (got string)"),
    ({"domain": {"L1": "60"}}, "domain.L1 must be a number (got string)"),
    ({"domain": {"h": True}}, "domain.h must be a number (got boolean)"),
    ({"domain": {"h": None}}, "domain.h must be a number (got null)"),
    ({"domain": {"trace": 0.5}}, "domain.trace must be a string (got number)"),
    ({"output": {"dump_fields": 1}}, "output.dump_fields must be a boolean (got number)"),
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
    assert "unknown section 'analysis'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"solver": {"flow_target": 1e-3}}, "unknown key 'flow_target' in section 'solver'"),
    ({"solver": {"method": "monotone"}},
     "solver.method must be one of newton, auto (got 'monotone')"),
    ({"analysis": {"conv_tol": 1e-2}}, "unknown section 'analysis'"),
    ({"output": {"plots": True}}, "unknown key 'plots' in section 'output'"),
], ids=["flow_target", "method", "conv_tol", "plots"])
def test_run_rejects_removed_solver_settings(config, message, tmp_path, capsys):
    # the flow's basin and the far-field detection's tolerance are constants,
    # the monotone method is gone, and no solve writes a plot
    out = tmp_path / "out"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**config, "output": {**config.get("output", {}),
                                                  "dir": str(out)}}))
    assert main(["run", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["torus", "bogus"])
def test_run_rejects_a_domain_kind_without_a_solve_command(kind, tmp_path, capsys):
    # checked with the config, before analysis.json or any profile is written
    out = tmp_path / "out"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"domain": {"kind": kind}, "output": {"dir": str(out)}}))
    assert main(["run", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"domain.kind must be one of quarter, half (got {kind!r})" in err
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
    assert sorted(os.listdir(out)) == ["field.csv", "solve.json", "trajectory.json"]
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
    assert main(_SOLVE_ARGS + ["--out", str(quarter)]) == 0
    summary = json.loads(_read(quarter / "solve.json"))
    assert summary["handoff"] is None and summary["iterations"] == 0
    assert main(["solve-half", "--f", "cantor:3", "--L1", "8", "--L2", "4", "--h", "0.5",
                 "--trace", "constant:0.99", "--u0", "0.97", "--out", str(flat)]) == 0
    summary = json.loads(_read(flat / "solve.json"))
    assert set(summary["handoff"]) == {"residual", "ratio"}
    assert summary["residual"] <= 1e-9 < summary["handoff"]["residual"]
    assert summary["iterations"] >= 1


def test_successive_calls_share_no_flag_state(tmp_path):
    # main reuses one parser: a flag given to one call is not seen by the next
    dumped, plain = tmp_path / "d", tmp_path / "p"
    assert main(_SOLVE_ARGS + ["--dump-fields", "--out", str(dumped)]) == 0
    assert main(_SOLVE_ARGS + ["--out", str(plain)]) == 0
    assert sorted(os.listdir(dumped)) == ["field.csv", "solve.json", "trajectory.json"]
    assert sorted(os.listdir(plain)) == ["solve.json", "trajectory.json"]


def test_short_ladder_solves_write_their_reports(tmp_path):
    # a table term whose only zero is 3 leaves no candidate at or below
    # M + 0.5, and a field 3 nodes long leaves a one-rung ladder (the window
    # takes 2 of them): both solves finish with their reports
    table = tmp_path / "f.csv"
    table.write_text("0,1\n1,1\n3,0\n")
    no_candidate = ["solve-half", "--f", f"table:{table}", "--L1", "2", "--L2", "2",
                    "--h", "0.5", "--trace", "constant:0"]
    one_shift = ["solve-quarter", "--f", "logistic", "--L1", "1.5", "--L2", "4",
                 "--h", "0.5", "--trace", "profile:1"]
    for k, argv in enumerate((no_candidate, one_shift)):
        out = tmp_path / f"s{k}"
        assert main(argv + ["--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["solve.json", "trajectory.json"]
    rungs = {r["h"] for r in json.loads(_read(out / "trajectory.json"))["distances"]}
    assert rungs == {0.5}


def test_solve_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_SOLVE_ARGS + ["--dump-fields", "--out", str(a)]) == 0
    assert main(_SOLVE_ARGS + ["--dump-fields", "--out", str(b)]) == 0
    for name in ("field.csv", "trajectory.json"):
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


def test_bubble_csv_bytes_match_a_per_row_writer(tmp_path):
    # the table is formatted by one `%`; a row-by-row f-string writer with
    # \n line ends gives the same bytes
    assert main(["bubble", "--f", "logistic", "--z", "1", "--eps", "0.1",
                 "--out", str(tmp_path)]) == 0
    bub = radial_bubble(make("logistic"), 1.0, 0.1)
    ref = "r,v,vp\n" + "".join(f"{r:.17g},{v:.17g},{vp:.17g}\n"
                               for r, v, vp in zip(bub.r, bub.v, bub.vp))
    assert _read(tmp_path / "bubble.csv") == ref.encode()


def test_profile_command_writes_table_and_summary(tmp_path, capsys):
    rc = main(["profile", "--f", "logistic", "--z", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "profile.csv").exists()
    summary = json.loads(_read(tmp_path / "profile.json"))
    assert set(summary) == {"z", "slope0", "crosscheck", "xi_attained",
                            "xi_max", "n"}
    assert (summary["xi_max"], summary["n"]) == (20.0, 2048)
    assert summary["slope0"] == pytest.approx(1 / math.sqrt(3), abs=1e-10)
    assert "floor slope" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("abs-sin", math.pi, 120.0, 8),
    ("abs-sin", math.pi, 200.0, 8),
    ("logistic", 1.0, 200.0, 8),
])
def test_coarse_profile_crosschecks_below_the_floor(argv):
    # the second grid node already hugs the limit, where the launch is
    # unstable; the launch runs only to where V is still 1e-3 below it,
    # whatever the grid. The profile command's grid is fixed, so
    # compute_profile takes these ones
    f, z, xi_max, n = argv
    assert profile1d.compute_profile(make(f), z, xi_max=xi_max, n=n).crosscheck <= 1e-6


def test_narrow_quarter_solve_reports_its_trajectory(tmp_path):
    # L2 / h = 7 rows: the far-field profiles are built on 7 intervals
    rc = main(["solve-quarter", "--f", "logistic", "--L1", "60", "--L2", "1.75",
               "--h", "0.25", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trajectory.json").exists()


def test_profile_command_does_not_import_scipy_interpolate(tmp_path):
    # a cold start pays for no interpolation module: the profile inverts its
    # quadrature with its own Hermite cubic
    code = ("import sys; from farfield.cli import main; "
            f"rc = main(['profile', '--f', 'logistic', '--z', '1', '--out', {str(tmp_path)!r}]); "
            "print(rc, 'scipy.interpolate' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_package_root_loads_no_submodule():
    # the root holds only __version__, so a module loads only its own imports
    code = ("import sys; import farfield; "
            "print(sorted(m for m in sys.modules if m.startswith('farfield.'))); "
            "import farfield.nonlinearity, farfield.odes, farfield.sliding; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_eigen_command_writes_summary(tmp_path, capsys):
    for N in range(1, 9):
        # J_nu is positive on (0, j) and its second zero lies past nu + 4
        nu = N / 2 - 1
        j = brentq(lambda x: jv(nu, x), nu + 1, nu + 4, xtol=1e-15)
        assert main(["eigen", "--N", str(N), "--R", "1", "--out", str(tmp_path)]) == 0
        rep = json.loads(_read(tmp_path / "eigen.json"))
        assert rep.keys() == {"N", "R", "value"}
        assert abs(rep["value"] - j * j) <= 1e-14 * j * j, N
    assert "principal eigenvalue" in capsys.readouterr().out


def test_slide_command_reports_domination(tmp_path, capsys):
    rc = main(["slide", "--f", "logistic", "--trace", "constant:0.1",
               "--L1", "16", "--L2", "12", "--h", "0.5",
               "--z", "1", "--eps", "0.1", "--from", "8,6", "--to", "9,6",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "field dominates the cap" in capsys.readouterr().out
    rep = json.loads(_read(tmp_path / "slide.json"))
    assert rep["ok"] is True
    assert rep["min_margin"] > 0
    assert rep["steps"] == len(rep["margins"]) == 61


def test_solve_half_detects_a_constant_strip(tmp_path, capsys):
    rc = main(["solve-half", "--f", "linear-decay",
               "--L1", "12", "--L2", "4", "--h", "0.5",
               "--trace", "constant:1", "--out", str(tmp_path)])
    assert rc == 0
    assert "far-field limit: level 1 (converged" in capsys.readouterr().out
    rep = json.loads(_read(tmp_path / "trajectory.json"))
    assert rep["converged"] is True and rep["detected_z"] == 1.0


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


def _strict_json(path):
    # NaN and Infinity are not JSON: refuse them rather than parse them
    def refuse(name):
        raise ValueError(f"{name} in {path}")
    return json.loads(_read(path), parse_constant=refuse)


def test_unconverged_trial_writes_a_null_residual(tmp_path, monkeypatch, capsys):
    # one trial whose solve fails: the sweep still exits 0, and its report
    # parses as strict JSON with that trial's residual null
    real = liouville._robust_solve
    calls = []

    def flaky(*args):
        calls.append(None)
        if len(calls) == 2:
            raise NumericError("injected failure")
        return real(*args)

    monkeypatch.setattr(liouville, "_robust_solve", flaky)
    assert main(["liouville-sweep", "--f", "abs-sin", "--domain", "box", "--L", "8",
                 "--h", "0.5", "--trials", "3", "--out", str(tmp_path)]) == 0
    rep = _strict_json(tmp_path / "sweep_box.json")
    assert rep["counts"] == {"constant": 2, "unconverged": 1}
    assert rep["trials"][1]["outcome"] == "unconverged"
    assert rep["trials"][1]["residual"] is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_report_json_cannot_hold_exits_2_and_writes_nothing(tmp_path, monkeypatch,
                                                               capsys, bad):
    monkeypatch.setattr(cli, "dirichlet_eigenvalue", lambda N, R: bad)
    assert main(["eigen", "--N", "2", "--R", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("numeric error: eigen.json:")
    assert os.listdir(tmp_path) == []


def test_json_report_bytes_are_those_of_json_dump(tmp_path):
    # one write of the dumped text: indent 2, sorted keys, a trailing newline
    obj = {"b": [1, 2.5, None], "a": {"y": True, "x": "s"}, "c": 1e-300}
    cli._write_json(obj, str(tmp_path / "r.json"))
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert _read(tmp_path / "r.json") == _read(tmp_path / "ref.json")


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
# full pipeline

def test_run_pipeline_writes_manifest_with_matching_digests(tmp_path, capsys):
    cfg = {"nonlinearity": {"spec": "linear-decay"},
           "domain": {"L1": 12.0, "L2": 6.0, "h": 0.5, "trace": "constant:0.5"},
           "output": {"dir": str(tmp_path / "out")}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 0
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == ["analysis.json", "manifest.json", "profile_0.csv",
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


_RUN_CFG = {"nonlinearity": {"spec": "logistic"},
            "domain": {"L1": 12.0, "L2": 6.0, "h": 0.5, "trace": "constant:0.5"}}


@pytest.mark.parametrize("bad", [{"domain": {"h": 0.7}}, {"domain": {"trace": "bump:1,x,2"}},
                                 {"solver": {"tol": -1.0}}], ids=["h", "trace", "tol"])
def test_run_refuses_bad_settings_before_it_writes(bad, tmp_path, capsys):
    # the solve comes first, so a grid, trace or tol it refuses leaves the
    # output directory as it was
    out = tmp_path / "out"
    out.mkdir()
    cfg = {**_RUN_CFG, **bad, "domain": {**_RUN_CFG["domain"], **bad.get("domain", {})}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("input error:")
    assert os.listdir(out) == []


def test_run_builds_each_profile_once(tmp_path, monkeypatch):
    # the profile tables and the quarter's far-field candidates are one set
    # of profiles, and the trajectory is that of solve-quarter, which builds
    # its own candidates
    from farfield import trajectory
    calls = []
    real = profile1d.compute_profile

    def counted(nl, z, **kwargs):
        calls.append(z)
        return real(nl, z, **kwargs)

    for module in (cli, trajectory):
        monkeypatch.setattr(module, "compute_profile", counted)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_RUN_CFG))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 0
    assert calls == [0.0, 1.0]
    assert main(["solve-quarter", "--f", "logistic", "--L1", "12", "--L2", "6", "--h", "0.5",
                 "--trace", "constant:0.5", "--out", str(tmp_path / "solve")]) == 0
    assert (_read(tmp_path / "run" / "trajectory.json")
            == _read(tmp_path / "solve" / "trajectory.json"))


def test_run_out_dot_writes_to_the_current_directory(tmp_path, monkeypatch):
    # --out . overrides the config's output.dir like any other --out
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**_RUN_CFG, "output": {"dir": str(tmp_path / "cfg-dir")}}))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", "--config", str(p), "--out", "."]) == 0
    assert "manifest.json" in os.listdir(cwd)
    assert not (tmp_path / "cfg-dir").exists()


# ---------------------------------------------------------------------------
# README

def _quick_tour_commands():
    """The farfield command lines of README's "## Quick tour" sh block."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    start = text.index("```sh\n", text.index("## Quick tour")) + len("```sh\n")
    block = text[start:text.index("```", start)]
    lines = block.replace("\\\n", " ").splitlines()
    return root, [shlex.split(line) for line in lines
                  if line.strip() and not line.lstrip().startswith("#")]


def test_readme_quick_tour_runs(tmp_path, monkeypatch, capsys):
    # outputs go to tmp_path: commands without --out write to the cwd
    root, commands = _quick_tour_commands()
    monkeypatch.chdir(tmp_path)
    assert commands
    for words in commands:
        assert words[0] == "farfield", words
        argv = words[1:]
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path)
        if "--config" in argv:
            i = argv.index("--config") + 1
            argv[i] = os.path.join(root, argv[i])
        assert main(argv) == 0, (argv, capsys.readouterr().err)
