"""Input coercion: every public entry that takes a 3-form H, a bracket or a metric
accepts the same input kinds and rejects the same bad inputs."""

import json

import numpy as np
import pytest

from nilflow import (
    DorfmanBracket,
    GrfState,
    KForm,
    LieBracket,
    Metric,
    ValidationError,
    as_metric,
    bismut_nabla_theta,
    blowup_time,
    closedness_residual,
    derivation_space,
    generalized_ricci_plus,
    gl_action,
    grf_rhs,
    h_circ_h,
    integrate_gbf,
    integrate_grf,
    rc_metric,
    soliton_fit,
    soliton_residual,
    symmetric_derivations,
)
from nilflow import lie
from nilflow.cli import _fmt_num, main
from nilflow.io import problem_from_dict

import oracles as oc

N = 4
MU = oc.bracket_from(oc.FILIFORM4, N)  # d vanishes on 3-forms of a 4-dim nilpotent algebra
# Dyadic coefficients, so packing the dense tensor (an average of 6 signed copies) is exact.
H_PACKED = np.array([0.5, -0.25, 0.75, 1.0])
G = np.diag([1.0, 2.0, 0.5, 1.5])

ENTRIES = {
    "h_circ_h": lambda H: h_circ_h(H, G),
    "bismut_nabla_theta": lambda H: bismut_nabla_theta(MU, G, H, np.ones(N)),
    "generalized_ricci_plus": lambda H: generalized_ricci_plus(MU, G, H, np.zeros(N)),
    "closedness_residual": lambda H: closedness_residual(MU, H),
    "DorfmanBracket": lambda H: DorfmanBracket(MU, H).structure_constants(),
    "integrate_gbf": lambda H: integrate_gbf("ric-h2", MU, H, (0.0, 0.5)).rows,
    "integrate_grf": lambda H: integrate_grf(MU, G, H, (0.0, 0.5)).rows,
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entries_taking_h_accept_kform_packed_and_dense(entry):
    run = ENTRIES[entry]
    want = run(KForm(N, 3, H_PACKED))
    assert np.array_equal(run(H_PACKED), want)
    assert np.array_equal(run(oc.dense_form(H_PACKED, N, 3)), want)
    bad = (KForm.zero(N, 2), oc.dense_form(np.ones(6), N, 2),          # 2-forms
           KForm(N + 1, 3, np.ones(10)), oc.dense_form(np.ones(10), N + 1, 3),
           np.ones(3))                                                   # wrong dimension
    for H in bad:
        with pytest.raises(ValidationError):
            run(H)


def test_integrate_grf_takes_a_diagonal_metric():
    H = KForm(N, 3, H_PACKED)
    want = integrate_grf(MU, G, H, (0.0, 0.5)).rows
    assert np.array_equal(integrate_grf(MU, np.diag(G), H, (0.0, 0.5)).rows, want)


@pytest.mark.parametrize("op", [lambda m: rc_metric(m, np.eye(3)),
                                lambda m: gl_action(2.0 * np.eye(3), m),
                                lambda m: grf_rhs(m, GrfState(Metric.identity(3),
                                                              KForm(3, 3, [1.0]))),
                                # the derivation constraints keep only the i < j rows
                                derivation_space,
                                lambda m: symmetric_derivations(m, np.eye(3))],
                         ids=["rc_metric", "gl_action", "grf_rhs", "derivation_space",
                              "symmetric_derivations"])
def test_non_skew_raw_bracket_rejected(op):
    with pytest.raises(ValidationError, match="not skew"):
        op(np.ones((3, 3, 3)))


@pytest.mark.parametrize("make", [lambda: LieBracket(np.zeros((0, 0, 0))),
                                  lambda: Metric(np.zeros((0, 0))),
                                  lambda: as_metric(np.zeros(0))],
                         ids=["LieBracket", "Metric", "as_metric"])
def test_dimension_zero_rejected(make):
    """Dimension 0 is a bad shape, as it is for KForm, not a numpy reduction error."""
    with pytest.raises(ValidationError, match="n >= 1|nonempty"):
        make()


# HEIS5, where d_mu e^125 = -e^1234: eps e^125 has closedness residual eps, on either side
# of STRUCTURE_TOL = 1e-7.
HEIS5 = oc.bracket_from(oc.HEIS5, 5)
CLOSED_BELOW_TOL, CLOSED_ABOVE_TOL = 5e-8, 5e-7
ZERO5 = np.zeros(5)

STRUCTURE_ENTRIES = {
    "DorfmanBracket": lambda H: DorfmanBracket(HEIS5, H),
    "generalized_ricci_plus": lambda H: generalized_ricci_plus(HEIS5, np.eye(5), H, ZERO5),
    "soliton_fit": lambda H: soliton_fit(HEIS5, np.eye(5), H, ZERO5),
    "soliton_residual": lambda H: soliton_residual(HEIS5, np.eye(5), H, ZERO5, 0.0,
                                                   np.zeros((5, 5)), KForm.zero(5, 2)),
    "integrate_gbf": lambda H: integrate_gbf("ric", HEIS5, H, (0.0, 0.1)),
    "integrate_grf": lambda H: integrate_grf(HEIS5, np.eye(5), H, (0.0, 0.1)),
    "grf_rhs": lambda H: grf_rhs(HEIS5, GrfState(Metric.identity(5), H)),
    "blowup_time": lambda H: blowup_time(HEIS5, np.eye(5), H, horizon=0.1),
}


def _heis5_flux(eps):
    return KForm.from_entries(5, 3, [((1, 2, 5), eps)])


@pytest.mark.parametrize("entry", sorted(STRUCTURE_ENTRIES))
def test_entries_share_one_structure_gate(entry):
    """Every entry that needs (mu, H) to be an exact Courant algebroid draws the line at the
    same closedness residual and refuses with the same reason."""
    run = STRUCTURE_ENTRIES[entry]
    run(_heis5_flux(CLOSED_BELOW_TOL))
    with pytest.raises(ValidationError,
                       match=r"^3-form is not closed for the bracket \(closedness residual "
                             r"5\.000e-07 exceeds 1\.0e-07\)$"):
        run(_heis5_flux(CLOSED_ABOVE_TOL))


# [e1, e2] = e3 and [e3, e4] = eps e1 on R^4, with H = 0: the Jacobiator on (e1, e2, e4) is
# eps e1, so the Jacobi residual is eps, on either side of STRUCTURE_TOL as above.
CLI_GATE_SIDES = (
    ("closedness", "3-form is not closed for the bracket",
     lambda eps: {"dim": 5, "mu": [[1, 2, 5, 1.0], [3, 4, 5, 1.0]], "H": [[1, 2, 5, eps]]}),
    ("jacobi", "bracket violates Jacobi",
     lambda eps: {"dim": 4, "mu": [[1, 2, 3, 1.0], [3, 4, 1, eps]]}),
)


def test_cli_shares_the_structure_gate(tmp_path, capsys):
    """On either side of the gate (closedness, Jacobi): nilflow check reports ok below the
    gate's line, and soliton-fit runs there; above it, check flags that side and soliton-fit
    exits 2 with the gate's reason."""
    for flag, reason, problem in CLI_GATE_SIDES:
        for eps, ok in ((CLOSED_BELOW_TOL, True), (CLOSED_ABOVE_TOL, False)):
            path = tmp_path / f"{flag}-{eps:g}.json"
            path.write_text(json.dumps(problem(eps)))
            assert main(["check", "--input", str(path)]) == 0
            status = capsys.readouterr().out.splitlines()[-1]
            assert status == ("status: ok" if ok else f"status: residual above 1e-07 ({flag})")
            code = main(["soliton-fit", "--input", str(path)])
            out, err = capsys.readouterr()
            if ok:
                assert code == 0 and "lambda" in json.loads(out)
            else:
                assert code == 2 and err.startswith(f"error: {reason}")


def test_cli_check_prints_the_gate_residuals(tmp_path, capsys):
    """On either side of the gate's line, nilflow check prints the structure gate's own
    residuals: _fmt_num of each in the text report, and each as it is in the --dorfman JSON."""
    labels = {"jacobi": "jacobi residual: ", "closedness": "closedness |d_mu H|: "}
    for flag, _, problem in CLI_GATE_SIDES:
        for eps in (CLOSED_BELOW_TOL, CLOSED_ABOVE_TOL):
            path = tmp_path / f"{flag}-{eps:g}.json"
            path.write_text(json.dumps(problem(eps)))
            p = problem_from_dict(problem(eps))
            gate = dict(zip(labels, lie._structure_residuals(
                lie._structure_row(p.mu.coeffs, p.H.coeffs), p.dim)))
            assert gate[flag] > 0.0
            assert main(["check", "--input", str(path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            for name, label in labels.items():
                assert label + _fmt_num(gate[name]) in lines
            assert main(["check", "--input", str(path), "--dorfman"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert {name: report[name] for name in labels} == gate
