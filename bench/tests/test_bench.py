"""Tests of the benchmark itself: span arithmetic, the wrappers, the generator
and the reference checks.  Run from the repository root with

    python3 -m pytest bench/tests -q
"""

import os
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import nilflow as nf  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import problems  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# self time

def test_self_time_of_a_synthetic_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [3, 6] (overlapping: union 1..6)
    # and 3 [8, 12] (clipped at 10); 1 has child 4 [2, 3].
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    got = spans.self_times(start, end, parent)
    np.testing.assert_allclose(got, [10 - 5 - 2, 3 - 1, 1, 3, 4])


def test_self_times_sum_to_root_duration_for_nested_spans():
    tr = spans.Tracer()

    def leaf():
        i = tr.open("leaf")
        sum(range(1000))
        tr.close(i)

    def mid():
        i = tr.open("mid")
        leaf()
        leaf()
        tr.close(i)

    tr.run_op(mid)
    start, end, parent, _ = tr.arrays()
    assert list(parent) == [-1, 0, 1, 1]
    assert spans.self_times(start, end, parent).sum() == pytest.approx(end[0] - start[0])
    by_name, unattributed = tr.summary()
    assert by_name["leaf"][0] == 2
    assert 0.0 <= unattributed < 1.0


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = {(m, a): getattr(sys.modules[m], a) for m, a in (
        ("nilflow", "ce_differential"), ("nilflow.hodge", "ce_differential"),
        ("nilflow.flows", "hodge_laplacian"), ("nilflow.flows", "rc_metric"))}
    init = nf.KForm.__init__
    tr = spans.Tracer()
    saved = spans.install(tr)
    try:
        for (m, a), fn in before.items():
            assert getattr(sys.modules[m], a) is not fn
        tr.run_op(lambda: nf.hodge_laplacian(nf.KForm(3, 3, [1.0]), problems.bracket_from_rows(
            3, problems.heisenberg_rows(3)), np.eye(3)))
    finally:
        spans.uninstall(saved)
    for (m, a), fn in before.items():
        assert getattr(sys.modules[m], a) is fn
    assert nf.KForm.__init__ is init
    calls = {k: v[0] for k, v in tr.summary()[0].items()}
    assert calls["hodge.hodge_laplacian"] == 1
    assert calls["lie.ce_differential"] >= 2  # reached through nilflow.hodge's binding
    assert calls["lie.KForm"] >= 1


def test_rhs_counter_counts_one_per_stage_of_fixed_step_rk4():
    tr = spans.Tracer()
    saved = spans.install(tr)
    try:
        mu = problems.bracket_from_rows(3, problems.heisenberg_rows(3))
        tr.run_op(lambda: nf.integrate_grf(mu, np.eye(3), np.array([1.0]), t_span=(0.0, 0.3),
                                           controls=nf.IntegratorControls(fixed_step=0.1)))
    finally:
        spans.uninstall(saved)
    assert tr.counters["flows.rhs_evals"] == 12
    assert tr.driver_log[0]["rhs_evals"] == 12 and tr.driver_log[0]["accepted"] == 3


# ---------------------------------------------------------------------------
# generator

@pytest.mark.parametrize("make", [
    lambda seed: problems.survey_problem(np.random.default_rng(seed), 5, True).as_dict(),
    lambda seed: problems.nil7_pair(np.random.default_rng(seed))[1].as_dict(),
])
def test_generator_is_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_workload_passes_depend_only_on_seed_and_pass():
    for wl in workloads.WORKLOADS.values():
        a = [op.slot for op in wl.make_pass(3, 2, ".")]
        assert a == [op.slot for op in wl.make_pass(3, 2, ".")]
    survey = workloads.WORKLOADS["survey"]
    first = survey.make_pass(3, 0, ".")
    assert len(first) == 2 * len(workloads.SURVEY_DIMS)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("random_basis", [False, True])
def test_generated_problems_are_lie_closed_and_of_known_step(n, random_basis):
    rng = np.random.default_rng(n)
    for _ in range(4):
        p = problems.survey_problem(rng, n, random_basis)
        scale = 1.0 + np.max(np.abs(p.mu))
        assert np.max(np.abs(problems.jacobiator(p.mu))) <= 1e-12 * scale ** 2
        assert np.max(np.abs(problems.dense_d(p.H, p.mu))) <= 1e-12 * scale
        assert nf.nilpotency_step(p.mu) == p.step
        assert np.min(np.linalg.eigvalsh(p.g)) > 0.0
        if random_basis:
            assert np.all(p.mu[np.triu_indices(n, 1)] != 0.0)


def test_pack_unpack_round_trip_matches_nilflow_layout():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(10)
    dense = problems.unpack(c, 5, 3)
    np.testing.assert_array_equal(problems.pack(dense), c)
    np.testing.assert_allclose(dense, nf.KForm(5, 3, c).unpack())


# ---------------------------------------------------------------------------
# the reference checks accept the program's results and reject perturbed ones

HEIS = problems.bracket_from_rows(3, problems.heisenberg_rows(3))


def _fake_traj(traj, which, delta, at=None):
    """Copy of a trajectory with one state (the middle one by default) perturbed."""
    at = len(traj.states) // 2 if at is None else at % len(traj.states)
    states = []
    for k, s in enumerate(traj.states):
        bump = delta if k == at else 0.0
        if which == "g":
            g = s.g.entries.copy()
            g[0, 0] += bump
            states.append(SimpleNamespace(g=SimpleNamespace(entries=g), H=s.H))
        else:
            mu = s.mu.copy()
            mu[0, 1, 2] += bump
            mu[1, 0, 2] -= bump
            states.append(SimpleNamespace(mu=mu, H=s.H))
    return SimpleNamespace(times=traj.times, states=states, final=states[-1])


def test_grf_and_roundtrip_checks_reject_a_metric_entry_off_by_1e_4(tmp_path):
    traj = nf.integrate_grf(HEIS, np.eye(3), np.array([1.0]), t_span=(0.0, 2.0))
    assert checks.check_grf_heisenberg(1.0, traj).ok
    bad = _fake_traj(traj, "g", 1e-4)
    assert not checks.check_grf_heisenberg(1.0, bad).ok
    path = str(tmp_path / "t.csv")
    nf.emit_trajectory_csv(traj, path)
    assert checks.check_roundtrip(traj, nf.read_trajectory_csv(path)).ok
    assert not checks.check_roundtrip(traj, _fake_traj(traj, "g", 1e-12)).ok


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_gbf_check_rejects_a_bracket_entry_off_by_1e_4(a):
    traj = nf.integrate_gbf("ric-h2", HEIS, np.array([a]), (0.0, 2.0))
    assert checks.check_gbf_heisenberg(a, traj, True).ok
    assert not checks.check_gbf_heisenberg(a, _fake_traj(traj, "mu", 1e-4), True).ok
    assert not checks.check_gbf_heisenberg(a, traj, False).ok


@pytest.mark.parametrize("a, expected", [(0.0, -1.0 / 3.0), (1.0, -0.25), (4.0, -0.0205705417)])
def test_tmin_reference_and_check(a, expected):
    ref = checks.tmin_reference(a)
    assert ref == pytest.approx(expected, abs=1e-10)
    assert checks.check_tmin(a, SimpleNamespace(time=ref + 1e-8, reason="norm")).ok
    assert not checks.check_tmin(a, SimpleNamespace(time=ref + 1e-3, reason="norm")).ok
    assert not checks.check_tmin(a, SimpleNamespace(time=None, reason="horizon")).ok


def test_equivariance_check_rejects_a_final_metric_off_by_1e_4():
    op = workloads._nil7_op(problems.nil7_pair(np.random.default_rng(5)),
                            workloads._nil7_controls(), t_end=2 * workloads.NIL7_T / workloads.NIL7_STEPS)
    out = op.run()
    assert op.check(out).ok
    sparse, dense = out
    assert not op.check((sparse, _fake_traj(dense, "g", 1e-4, at=-1))).ok


def test_survey_check_rejects_perturbed_results():
    op = workloads._survey_op("t", problems.survey_problem(np.random.default_rng(2), 4, True))
    out = op.run()
    assert op.check(out).ok
    perturbed = [
        {"nilpotency_step": out["nilpotency_step"] + 1},
        {"generalized_ricci_plus": out["generalized_ricci_plus"] + 1e-4 * np.eye(4)},
        {"dorfman_jacobi_residual": 1e-3},
        {"soliton_fit": replace(out["soliton_fit"],
                                sym_residual=out["soliton_fit"].sym_residual + 1e-4)},
        {"soliton_fit": replace(out["soliton_fit"], D=out["soliton_fit"].D + 1e-4)},
    ]
    for change in perturbed:
        assert not op.check({**out, **change}).ok, change


# ---------------------------------------------------------------------------
# calibration and the runner

def test_calibration_scales_by_reference_over_median_kernel_time():
    assert calibrate.kernel() == calibrate.kernel()
    slow = [(2 * calibrate.REFERENCE_WALL_S, 2 * calibrate.REFERENCE_CPU_S)] * 3
    assert calibrate.speed(slow + [(1.0, 1.0)]) == pytest.approx((0.5, 0.5))
    wall, cpu = calibrate.sample()
    assert wall > 0.0 and cpu >= 0.0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "survey", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
