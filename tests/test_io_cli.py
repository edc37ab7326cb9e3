"""Problem ingestion, CSV/SVG emission, and the command-line surface."""

import csv
import json

import numpy as np
import pytest

from nilflow import (
    IntegratorControls,
    KForm,
    Metric,
    Trajectory,
    ValidationError,
    builtin_problem,
    emit_phase_svg,
    emit_trajectory_csv,
    integrate_gbf,
    integrate_grf,
    load_problem,
    problem_from_dict,
    read_trajectory_csv,
    trajectory_column_labels,
)
from nilflow.cli import main

import oracles as oc

HEIS = oc.bracket_from(oc.HEIS3, 3)


# ---------------------------------------------------------------------------
# builtin fixtures


def test_builtin_heisenberg():
    p = builtin_problem("heisenberg3")
    assert p.dim == 3 and p.name == "heisenberg3"
    assert np.array_equal(p.mu.coeffs, HEIS.coeffs)
    assert np.array_equal(p.g.entries, np.eye(3))
    assert p.H.coeffs[0] == 0.0
    assert p.theta.norm_inf == 0.0


def test_builtin_heisenberg_with_flux():
    assert builtin_problem("heisenberg3+H(1.5)").H.coeffs[0] == 1.5
    assert builtin_problem("heisenberg3+H(-2e-1)").H.coeffs[0] == -0.2
    assert builtin_problem("heisenberg3+H(.5)").H.coeffs[0] == 0.5


def test_builtin_abelian():
    p = builtin_problem("abelian(4)")
    assert p.dim == 4
    assert np.max(np.abs(p.mu.coeffs)) == 0.0
    with pytest.raises(ValidationError):
        builtin_problem("abelian(11)")
    with pytest.raises(ValidationError):
        builtin_problem("abelian(0)")


def test_builtin_unknown_names():
    for name in ("heisenberg", "heisenberg3+H(x)", "abelian", "problem.json"):
        assert builtin_problem(name) is None


# ---------------------------------------------------------------------------
# JSON schema


def test_problem_from_dict_full():
    p = problem_from_dict({
        "dim": 3,
        "name": "sample",
        "mu": [[1, 2, 3, 1.0]],
        "H": [[1, 2, 3, 0.5]],
        "theta": [[3, 2.0]],
        "g_diag": [1.0, 2.0, 3.0],
    })
    assert p.name == "sample"
    assert p.mu.coeffs[0, 1, 2] == 1.0 and p.mu.coeffs[1, 0, 2] == -1.0
    assert p.H.coeffs[0] == 0.5
    assert p.theta.coeffs[2] == 2.0
    assert np.array_equal(p.g.entries, np.diag([1.0, 2.0, 3.0]))


def test_problem_from_dict_dense_metric_and_defaults():
    p = problem_from_dict({"dim": 2, "g": [[2.0, 1.0], [1.0, 2.0]]})
    assert np.array_equal(p.g.entries, [[2.0, 1.0], [1.0, 2.0]])
    assert p.H.degree == 3 and p.H.coeffs.size == 0
    q = problem_from_dict({"dim": 2})
    assert np.array_equal(q.g.entries, np.eye(2))


@pytest.mark.parametrize("data", [
    [1, 2, 3],
    {"mu": []},
    {"dim": 3, "extra": 1},
    {"dim": 0},
    {"dim": 11},
    {"dim": True},
    {"dim": "3"},
    {"dim": 3, "name": 7},
    {"dim": 3, "g": [[1.0]* 3] * 3, "g_diag": [1.0] * 3},
    {"dim": 3, "g": [[1.0, 0.0], [0.0, 1.0]]},
    {"dim": 3, "g": "identity"},
    {"dim": 3, "g": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, "x"]]},
    {"dim": 3, "g_diag": [1.0, 1.0]},
    {"dim": 3, "g_diag": [1.0, 1.0, -1.0]},
    {"dim": 3, "mu": [[1, 2, 1.0]]},
    {"dim": 3, "mu": [[1, 2, 3.5, 1.0]]},
    {"dim": 3, "mu": [[1, 2, True, 1.0]]},
    {"dim": 3, "mu": [[1, 2, 3, "big"]]},
    {"dim": 3, "mu": "none"},
    {"dim": 3, "mu": [[1, 2, 3, 1.0], [1, 2, 3, 2.0]]},
    {"dim": 3, "H": [[1, 2, 3, 1.0], [2, 1, 3, 1.0]]},
    {"dim": 3, "H": [[1, 2, 4, 1.0]]},
    {"dim": 3, "theta": [[0, 1.0]]},
])
def test_problem_from_dict_rejects(data):
    with pytest.raises(ValidationError):
        problem_from_dict(data)


def test_load_problem_paths(tmp_path):
    assert load_problem("heisenberg3").name == "heisenberg3"
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"dim": 3, "mu": [[1, 2, 3, 1.0]]}))
    p = load_problem(path)
    assert p.name == str(path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError) as err:
        load_problem(bad)
    assert "line" in str(err.value)
    with pytest.raises(OSError):
        load_problem(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# CSV round-trip


def _grf_traj(a=1.0, t_end=1.0):
    return integrate_grf(HEIS, Metric.identity(3),
                         KForm(3, 3, np.array([a])), (0.0, t_end))


def test_trajectory_csv_round_trip(tmp_path):
    traj = _grf_traj()
    path = tmp_path / "run.csv"
    emit_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,g_1,g_2,g_3,g_12,g_13,g_23,H_123"
    back = read_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    for s1, s2 in zip(back.states, traj.states):
        assert np.array_equal(s1.g.entries, s2.g.entries)
        assert np.array_equal(s1.H.coeffs, s2.H.coeffs)


def test_trajectory_csv_deterministic(tmp_path):
    traj = _grf_traj()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_trajectory_csv(traj, p1)
    emit_trajectory_csv(traj, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trajectory_csv_gbf_round_trip(tmp_path):
    traj = integrate_gbf("ric-h2", HEIS, KForm(3, 3, np.array([1.0])),
                         (0.0, 1.0))
    path = tmp_path / "gbf.csv"
    emit_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert back.kind == "gbf"
    assert np.array_equal(back.final.mu, traj.final.mu)


def test_trajectory_csv_text_matches_csv_writer(tmp_path):
    # extreme and signed values: the file's text is csv.writer's on format(v, ".17g")
    vals = [-0.0, 0.1, 1e-300, 1.7976931348623157e308, 2.5e-17]
    rows = np.array([vals + vals, vals[::-1] + vals[::-1]])
    traj = Trajectory(np.array([0.0, 2.5e-17]), rows, "gbf")
    path = tmp_path / "gbf.csv"
    emit_trajectory_csv(traj, path)
    with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + trajectory_column_labels("gbf", 3))
        for t, row in zip(traj.times, rows):
            writer.writerow([format(float(v), ".17g") for v in (t, *row)])
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert path.read_bytes().split(b"\r\n")[1] == (
        b"0,-0,0.10000000000000001,1e-300,1.7976931348623157e+308,2.4999999999999999e-17,"
        b"-0,0.10000000000000001,1e-300,1.7976931348623157e+308,2.4999999999999999e-17")
    back = read_trajectory_csv(path)
    assert np.array_equal(back.rows, rows) and np.signbit(back.rows[0, 0])


def test_read_trajectory_csv_errors(tmp_path):
    p = tmp_path / "junk.csv"
    p.write_text("x,y\n1,2\n")
    with pytest.raises(ValidationError):
        read_trajectory_csv(p)
    p.write_text("t,g_1,g_2,g_3,g_12,g_13,g_23,H_123\n")
    with pytest.raises(ValidationError):
        read_trajectory_csv(p)
    p.write_text("t,g_1,g_2,g_3,g_12,g_13,g_23,H_123\n0.0,1.0\n")
    with pytest.raises(ValidationError):
        read_trajectory_csv(p)
    p.write_text("t,g_1,g_2,g_3,g_12,g_13,g_23,H_123\n"
                 "0.0,1.0,1.0,1.0,0.0,0.0,0.0,what\n")
    with pytest.raises(ValidationError):
        read_trajectory_csv(p)
    # non-finite entries: a last time of inf, a bracket-flow mu of nan or inf
    gbf_header = "t," + ",".join(trajectory_column_labels("gbf", 3)) + "\n"
    good = "0.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.5\n"
    for text in (good + good.replace("0.0", "inf", 1),
                 good + "1.0,0.0,0.0,nan,0.0,0.0,0.0,0.0,0.0,0.0,0.5\n",
                 good + "1.0,0.0,0.0,-inf,0.0,0.0,0.0,0.0,0.0,0.0,0.5\n"):
        p.write_text(gbf_header + text)
        with pytest.raises(ValidationError):
            read_trajectory_csv(p)
    p.write_text(gbf_header + good + good.replace("0.0", "1.0", 1))
    assert read_trajectory_csv(p).times[-1] == 1.0  # the same file with finite entries reads
    # a metric that is not positive definite: g_12 = 2 with g_1 = g_2 = 1
    p.write_text("t,g_1,g_2,g_3,g_12,g_13,g_23,H_123\n0.0,1.0,1.0,1.0,2.0,0.0,0.0,0.0\n")
    with pytest.raises(ValidationError):
        read_trajectory_csv(p)


def test_one_dimensional_bracket_flow(tmp_path, capsys):
    mu = builtin_problem("abelian(1)").mu
    for controls in (None, IntegratorControls(fixed_step=0.25)):
        traj = integrate_gbf("ric-h2", mu, None, (0.0, 1.0), controls)
        assert traj.dim == 1 and traj.rows.shape == (len(traj.times), 0)
        assert traj.times[-1] == 1.0 and traj.final.mu.shape == (1, 1, 1)
        path = tmp_path / "flow.csv"
        emit_trajectory_csv(traj, path)
        assert path.read_text().splitlines()[0] == "t"
        back = read_trajectory_csv(path)
        assert back.kind == "gbf" and back.dim == 1
        assert np.array_equal(back.times, traj.times)
    out = tmp_path / "cli.csv"
    assert main(["bracket-flow", "--input", "abelian(1)", "--out", str(out)]) == 0
    assert read_trajectory_csv(out).dim == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# SVG


def test_phase_svg_polyline(tmp_path):
    traj = _grf_traj()
    path = tmp_path / "plot.svg"
    emit_phase_svg(traj, "g_1", "g_3", path)
    text = path.read_text()
    assert text.startswith("<svg xmlns")
    assert text.rstrip().endswith("</svg>")
    assert "<polyline" in text
    assert ">g_1</text>" in text and ">g_3</text>" in text


def test_phase_svg_deterministic(tmp_path):
    traj = _grf_traj()
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_phase_svg(traj, "t", "g_1", p1)
    emit_phase_svg(traj, "t", "g_1", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_phase_svg_single_point(tmp_path):
    st = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0]  # g = I, H = e^123
    traj = Trajectory(times=np.array([0.0]), rows=(st,), kind="grf")
    path = tmp_path / "dot.svg"
    emit_phase_svg(traj, "g_1", "g_3", path)
    text = path.read_text()
    assert "<circle" in text and "<polyline" not in text


def test_phase_svg_unknown_column(tmp_path):
    traj = _grf_traj()
    with pytest.raises(ValidationError) as err:
        emit_phase_svg(traj, "g_1", "g_9", tmp_path / "x.svg")
    assert "available:" in str(err.value)


# ---------------------------------------------------------------------------
# CLI


def test_cli_check(capsys):
    assert main(["check", "--input", "heisenberg3"]) == 0
    out = capsys.readouterr().out
    assert "problem: heisenberg3 (dim 3)" in out
    assert "nilpotency step: 2" in out
    assert "status: ok" in out


def test_cli_check_flags_residuals(tmp_path, capsys):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({
        "dim": 4, "mu": [[1, 2, 2, 1.0]], "H": [[2, 3, 4, 1.0]]}))
    assert main(["check", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "status: residual above" in out and "closedness" in out
    assert "not nilpotent" in out


def test_cli_check_dorfman_json(capsys):
    assert main(["check", "--input", "heisenberg3+H(1)", "--dorfman"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["problem"] == "heisenberg3+H(1)"
    assert data["dim"] == 3
    for key in ("jacobi", "closedness", "skewness", "dorfman_jacobi"):
        assert data[key] <= 1e-10


def test_cli_ricci(capsys):
    assert main(["ricci", "--input", "heisenberg3"]) == 0
    out = capsys.readouterr().out
    assert "ricci (orthonormal frame):" in out
    assert "-0.5" in out and "0.5" in out


def test_cli_soliton_fit_json(capsys):
    assert main(["soliton-fit", "--input", "heisenberg3+H(1)"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lambda"] == pytest.approx(-2.0, abs=1e-9)
    assert np.allclose(data["D"], np.diag([1.0, 1.0, 2.0]), atol=1e-9)
    assert data["omega"][0][:2] == [1, 2]
    assert data["residual_norm"] <= 1e-10
    assert data["sym_residual"] <= 1e-10 and data["skew_residual"] <= 1e-10


def test_cli_bracket_flow_outputs(tmp_path, capsys):
    csv_path = tmp_path / "flow.csv"
    svg_path = tmp_path / "flow.svg"
    code = main(["bracket-flow", "--input", "heisenberg3+H(1)",
                 "--phi", "ric-h2", "--t-end", "1",
                 "--out", str(csv_path), "--svg", str(svg_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "steps: accepted=" in out
    assert f"wrote trajectory CSV: {csv_path}" in out
    back = read_trajectory_csv(csv_path)
    assert back.kind == "gbf"
    assert svg_path.read_text().startswith("<svg")


def test_cli_grf_csv_columns(tmp_path, capsys):
    csv_path = tmp_path / "grf.csv"
    code = main(["grf", "--input", "heisenberg3+H(1)", "--t-end", "1",
                 "--out", str(csv_path)])
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"t", "g_1", "g_2", "g_3", "g_12", "g_13", "g_23",
                            "H_123"}
    for row in rows:
        assert float(row["g_3"]) == pytest.approx(1.0, abs=1e-7)
        assert float(row["H_123"]) == 1.0


def test_cli_grf_backward_singularity_is_exit_3(capsys):
    code = main(["grf", "--input", "heisenberg3", "--direction", "backward",
                 "--t-end", "1"])
    assert code == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_cli_grf_rejects_a_bracket_that_violates_jacobi(tmp_path, capsys):
    path = tmp_path / "not_lie.json"
    path.write_text(json.dumps({"dim": 3, "mu": [[1, 2, 3, 1.0], [1, 3, 1, 1.0]]}))
    assert main(["grf", "--input", str(path), "--t-end", "0.1"]) == 2
    assert "error: bracket violates Jacobi" in capsys.readouterr().err


def test_cli_rejects_a_bracket_that_is_not_unimodular(tmp_path, capsys):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"dim": 3, "mu": [[1, 2, 2, 1.0]], "H": [[1, 2, 3, 1.0]]}))
    for argv in (["grf", "--input", str(path), "--t-end", "0.1"],
                 ["soliton-fit", "--input", str(path)]):
        assert main(argv) == 2
        assert "not unimodular" in capsys.readouterr().err


def test_cli_tmin_sweep(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code = main(["tmin-sweep", "--a-values", "0,1", "--t-long", "1",
                 "--horizon", "1", "--rtol", "1e-7", "--atol", "1e-9",
                 "--out", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "T_min" in out and "status" in out
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["a"]) for r in rows] == [0.0, 1.0]
    assert float(rows[0]["t_min"]) == pytest.approx(-1.0 / 3.0, abs=1e-3)
    assert float(rows[1]["t_min"]) == pytest.approx(-0.25, abs=1e-3)
    assert rows[0]["status"] == "ok"


def test_cli_exit_codes(tmp_path, capsys):
    # validation errors: exit 2
    assert main(["tmin-sweep", "--a-values", "x,y"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["check", "--input", str(bad)]) == 2
    assert main(["grf", "--input", "heisenberg3", "--t-start", "2",
                 "--t-end", "1"]) == 2
    assert main(["tmin-sweep", "--a-values", "1", "--horizon", "0"]) == 2
    assert main(["grf", "--input", "heisenberg3", "--rtol", "inf"]) == 2
    # argparse usage errors also land on 2
    assert main(["bracket-flow", "--input", "heisenberg3", "--phi", "warp"]) == 2
    assert main([]) == 2
    # i/o failures: exit 4
    assert main(["check", "--input", str(tmp_path / "missing.json")]) == 4
    assert main(["grf", "--input", "heisenberg3", "--t-end", "0.5",
                 "--out", str(tmp_path)]) == 4
    capsys.readouterr()


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "check" in capsys.readouterr().out


_FLOW_FLAGS = ["--input", "--t-start", "--t-end", "--rtol", "--atol", "--out",
               "--svg", "--svg-x", "--svg-y"]


@pytest.mark.parametrize("command, flags", [
    ("check", ["--input", "--dorfman"]),
    ("ricci", ["--input"]),
    ("soliton-fit", ["--input"]),
    ("bracket-flow", ["--phi"] + _FLOW_FLAGS),
    ("grf", ["--direction"] + _FLOW_FLAGS),
    ("tmin-sweep", ["--a-values", "--t-long", "--horizon", "--rtol", "--atol", "--out"]),
])
def test_cli_subcommand_help(command, flags, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: nilflow {command} ")
    for flag in flags:
        assert f"{flag} " in out


# each bad argv exits 2 before any run writes output, and stderr names the
# flag or the library parameter that rejected it
@pytest.mark.parametrize("argv, names", [
    (["fly", "--input", "heisenberg3"], "command"),
    (["check", "--input", "heisenberg3", "--tol", "0"], "--tol"),
    (["check", "--input", "heisenberg3", "--tol", "nan"], "--tol"),
    (["grf", "--input", "heisenberg3", "--t-start", "2", "--t-end", "1"], "--t-start"),
    (["grf", "--input", "heisenberg3", "--t-start", "1", "--t-end", "1"], "--t-start"),
    (["grf", "--input", "heisenberg3", "--direction", "sideways"], "--direction"),
    (["tmin-sweep", "--a-values", ""], "--a-values"),
    (["tmin-sweep", "--a-values", "1", "--horizon", "0"], "horizon_back"),
    (["tmin-sweep", "--a-values", "1", "--t-long", "inf"], "t_long"),
    (["tmin-sweep", "--a-values", "0,nan"], "a_values"),
    (["ricci"], "--input"),
    (["grf", "--input", "heisenberg3", "--rtol", "inf"], "rtol"),
    (["bracket-flow", "--input", "heisenberg3", "--atol", "0"], "atol"),
    (["grf", "--input", "heisenberg3", "--t-start=-inf"], "time span"),
    (["grf", "--input", "heisenberg3", "--out", "flow.csv", "--svg-x", "g_1"],
     "--svg-x needs --svg"),
    (["bracket-flow", "--input", "heisenberg3", "--out", "flow.csv", "--svg-y", "t"],
     "--svg-y needs --svg"),
])
def test_cli_usage_errors_exit_2(argv, names, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert names in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["grf", "--input", "missing.json", "--t-start=-inf"],
    ["bracket-flow", "--input", "missing.json", "--t-end=inf"],
    ["grf", "--input", "missing.json", "--t-end=nan"],
])
def test_cli_rejects_non_finite_times_before_reading_input(argv, tmp_path, monkeypatch, capsys):
    """Two faults at once: the non-finite time is reported (exit 2), not the missing file (exit 4)."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--t-start and --t-end must be finite" in err
    assert "missing.json" not in err
