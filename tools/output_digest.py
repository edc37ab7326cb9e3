"""SHA-256 digest of nilflow's outputs on a fixed set of runs.

    python tools/output_digest.py <src-dir>

Imports nilflow from <src-dir> (for example ``src``, or the ``src`` of another
checkout) and the seeded inputs from this checkout's ``bench/problems.py``,
``bench/workloads.py`` and ``tests/oracles.py``.  Prints one digest per
section, then the digest over all sections.  Two trees that print the same
last line produced bitwise-equal outputs on these runs:

  - heis3 GRF and ``ric-h2`` bracket flow to t = 50 for each benchmark a:
    the CSV bytes and the accepted/rejected step counts;
  - heis3 ``blowup_time`` in both directions with horizon 1;
  - the fixed-step nil7 pairs of nil7-forward for seeds 1, 2, 3, 5 and 7;
  - the ``tmin_sweep`` rows over the benchmark's a values;
  - "flow errors": the NumericalError text of ``integrate_grf`` on heis3 from
    g = I, backward over (0, 1) for each benchmark a (each run stalls at its
    singular time) and backward by one fixed step of 0.4 with H = 0 (whose
    final metric is not positive definite);
  - ``gbf_rhs`` on 16 random nilpotent brackets, n = 3..6, with a random
    3-form, and on the same brackets with a closed H (the GRF rejects any
    other): ``grf_rhs``, adaptive ``integrate_grf`` forward and backward (or
    the text of its NumericalError) and ``blowup_time``;
  - every survey result for seeds 1..8, 3 passes each, in five sections by
    diagnostic: "survey structure" (Jacobi residual, nilpotency step,
    closedness residual), "survey ricci+" (the generalized Ricci tensor),
    "survey soliton omega", "survey soliton lam/D/residuals" (the rest of the
    soliton fit) and "survey dorfman" (both Dorfman residuals), so that a
    change to one diagnostic shows up under its own name;
  - ``codifferential`` and ``hodge_laplacian`` of a seeded form of every
    degree 0..n on a random nilpotent bracket with a random metric, n = 3..10
    (up to MAX_PROBLEM_DIM, the sizes the GRF kernel's d* runs at), so that a
    change to d* shows up under its own name;
  - "forms": ``KForm.unpack``, ``ce_differential`` and ``hodge_star`` in both
    orientations of a seeded form of every degree 0..n, about a quarter of its
    coefficients zero, on a random nilpotent bracket with a random metric,
    n = 3..7, and ``wedge`` of every pair of those forms, so that a change to
    the form calculus' index tables shows up under its own name;
  - "dorfman_eval": ``dorfman_eval`` on 8 seeded pairs of generalized vectors
    per n = 3..7, for a random nilpotent bracket with a random 3-form and for
    a raw non-skew bracket with a non-alternating dense flux;
  - "from_dense": ``KForm.from_dense`` of a seeded dense form of every degree
    1..n, n = 3..7, about a quarter of its coefficients zero, as given and with
    a random leak of 1e-12 (accepted, as it is below SKEW_TOL);
  - the random nilpotent brackets of "random brackets", "hodge", "forms" and
    "dorfman_eval" are ``oracles.random_nilpotent``'s, moved to their random
    basis by the oracle's own einsum, not by the library's ``gl_action``, so
    that those sections do not move with ``gl_action``'s round-off;
  - "sparse": ``codifferential``, ``hodge_laplacian`` and ``ce_differential`` of
    a sparse closed 3-form H, ``grf_rhs`` and both ``gbf_rhs`` on it, at g = I
    on the Heisenberg brackets (n = 3, 5, 7) and the filiform ones (n = 4..6).
    These inputs give exact zeros, so a change to the sign of a zero (-0.0
    against +0.0) shows up here, where the random sections above have none;
  - ``nilflow.cli.main`` on each command line of README.md's CLI block and
    on CLI_EXIT_2, run in a fresh directory with relative output names: the
    exit code, the stdout and the bytes of each file the command wrote
    (stderr is left out, as argparse's usage text may change).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import math
import os
import shlex
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _feed(h, x):
    """Hash x by type tag and exact bits; floats by their hex form."""
    if isinstance(x, np.ndarray):
        h.update(f"array{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (bool, np.bool_)):
        h.update(f"bool{bool(x)}".encode())
    elif isinstance(x, (int, np.integer)):
        h.update(f"int{int(x)}".encode())
    elif isinstance(x, (float, np.floating)):
        h.update(f"float{float(x).hex()}".encode())
    elif isinstance(x, (str, bytes)):
        data = x.encode() if isinstance(x, str) else x
        h.update(f"bytes{len(data)}:".encode() + data)
    elif x is None:
        h.update(b"None")
    elif isinstance(x, dict):
        h.update(f"dict{len(x)}".encode())
        for key in sorted(x):
            _feed(h, key)
            _feed(h, x[key])
    elif isinstance(x, (list, tuple)):
        h.update(f"seq{len(x)}".encode())
        for item in x:
            _feed(h, item)
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            _feed(h, f.name)
            _feed(h, getattr(x, f.name))
    else:
        raise TypeError(f"cannot digest {type(x).__name__}")


def _heis3(nf, workloads, outdir):
    out = []
    mu = workloads._heis3()
    for a in workloads.HEIS3_A:
        flux = np.array([a])
        for kind, traj in (
                ("grf", nf.integrate_grf(mu, np.eye(3), flux, (0.0, workloads.FORWARD_T))),
                ("gbf", nf.integrate_gbf("ric-h2", mu, flux, (0.0, workloads.FORWARD_T)))):
            path = os.path.join(outdir, f"heis3-{kind}.csv")
            nf.emit_trajectory_csv(traj, path)
            with open(path, "rb") as fh:
                out.append((a, kind, fh.read(), traj.accepted, traj.rejected))
    return out


def _heis3_blowup(nf, workloads, outdir):
    mu = workloads._heis3()
    return [nf.blowup_time(mu, np.eye(3), np.array([a]), direction=d, horizon=1.0)
            for a in workloads.HEIS3_A for d in (1, -1)]


def _nil7(nf, workloads, outdir):
    out = []
    for seed in (1, 2, 3, 5, 7):
        for op in workloads.WORKLOADS["nil7-forward"].make_pass(seed, 0, outdir):
            out.append([(traj.times, traj.rows) for traj in op.run()])
    return out


def _sweep(nf, workloads, outdir):
    return nf.tmin_sweep(workloads.HEIS3_A)


def _or_error(nf, run):
    try:
        return run()
    except nf.NumericalError as exc:
        return f"NumericalError: {exc}"


def _flow_errors(nf, workloads, outdir):
    mu = workloads._heis3()
    runs = [lambda a=a: nf.integrate_grf(mu, np.eye(3), np.array([a]), (0.0, 1.0), direction=-1)
            for a in workloads.HEIS3_A]
    runs.append(lambda: nf.integrate_grf(mu, np.eye(3), None, (0.0, 0.4), direction=-1,
                                         controls=nf.IntegratorControls(fixed_step=0.4)))
    return [_or_error(nf, run) for run in runs]


def _random(nf, workloads, outdir):
    import oracles
    import problems

    rng = np.random.default_rng(20260818)
    out = []
    for i in range(16):
        n = 3 + i % 4
        mu = oracles.random_nilpotent(rng, n)
        g = oracles.random_spd(rng, n)
        flux = nf.KForm(n, 3, oracles.random_form_coeffs(rng, n, 3))
        for spec in ("ric", "ric-h2"):
            out.append(nf.gbf_rhs(spec, mu, flux))
        H = problems.pack(problems.closed_flux(rng, mu.coeffs, 0.5))
        out.append(nf.grf_rhs(mu, nf.GrfState(nf.Metric(g), nf.KForm(n, 3, H))))
        for direction in (1, -1):
            out.append(_or_error(nf, lambda: nf.integrate_grf(
                mu, g, H, (0.0, 1.0), direction=direction)))
        out.append(nf.blowup_time(mu, g, H, horizon=1.0))
    return out


@functools.lru_cache(maxsize=1)
def _survey_results(nf, workloads, outdir):
    return [op.run() for seed in range(1, 9) for p in range(3)
            for op in workloads.WORKLOADS["survey"].make_pass(seed, p, outdir)]


def _survey(pick):
    """A section of the survey results: pick(result dict) for every operation."""
    return lambda nf, workloads, outdir: [pick(out) for out in
                                          _survey_results(nf, workloads, outdir)]


def _fit_numbers(fit):
    return fit.lam, fit.D, fit.sym_residual, fit.skew_residual, fit.residual_norm


SURVEY_SECTIONS = (
    ("survey structure", _survey(lambda out: (
        out["jacobi_residual"], out["nilpotency_step"], out["closedness_residual"]))),
    ("survey ricci+", _survey(lambda out: out["generalized_ricci_plus"])),
    ("survey soliton omega", _survey(lambda out: out["soliton_fit"].omega)),
    ("survey soliton lam/D/residuals", _survey(lambda out: _fit_numbers(out["soliton_fit"]))),
    ("survey dorfman", _survey(lambda out: (
        out["dorfman_total_skew_residual"], out["dorfman_jacobi_residual"]))),
)


def _hodge(nf, workloads, outdir):
    import oracles

    rng = np.random.default_rng(20260818)
    out = []
    for n in range(3, 11):
        mu = oracles.random_nilpotent(rng, n)
        g = oracles.random_spd(rng, n)
        for k in range(n + 1):
            w = nf.KForm(n, k, oracles.random_form_coeffs(rng, n, k))
            out.append((nf.codifferential(w, mu, g), nf.hodge_laplacian(w, mu, g)))
    return out


def _dorfman_eval(nf, workloads, outdir):
    import oracles

    rng = np.random.default_rng(20260820)
    out = []
    for n in range(3, 8):
        mu = oracles.random_nilpotent(rng, n)
        H = nf.KForm(n, 3, oracles.random_form_coeffs(rng, n, 3))
        raw_mu, raw_H = rng.standard_normal((2, n, n, n))
        for _ in range(8):
            z1, z2 = (nf.GeneralizedVector(*rng.standard_normal((2, n))) for _ in range(2))
            out.append((nf.dorfman_eval(mu, H, z1, z2), nf.dorfman_eval(raw_mu, raw_H, z1, z2)))
    return out


def _from_dense(nf, workloads, outdir):
    import oracles

    rng = np.random.default_rng(20260821)
    out = []
    for n in range(3, 8):
        for k in range(1, n + 1):
            coeffs = oracles.random_form_coeffs(rng, n, k)
            coeffs[rng.random(coeffs.size) < 0.25] = 0.0
            dense = oracles.dense_form(coeffs, n, k)
            # and the same tensor plus a leak that is not alternating, well inside SKEW_TOL
            leak = 1e-12 * rng.standard_normal(dense.shape)
            out.append((nf.KForm.from_dense(dense), nf.KForm.from_dense(dense + leak)))
    return out


def _forms(nf, workloads, outdir):
    import oracles

    rng = np.random.default_rng(20260819)
    out = []
    for n in range(3, 8):
        mu = oracles.random_nilpotent(rng, n)
        g = oracles.random_spd(rng, n)
        forms = []
        for k in range(n + 1):
            coeffs = oracles.random_form_coeffs(rng, n, k)
            coeffs[rng.random(coeffs.size) < 0.25] = 0.0
            forms.append(nf.KForm(n, k, coeffs))
        for w in forms:
            out.append((w.unpack(), nf.ce_differential(w, mu), nf.hodge_star(w, g),
                        nf.hodge_star(w, g, orientation=-1)))
        out.append([nf.wedge(a, b) for a in forms for b in forms])
    return out


def _sparse_brackets():
    """(n, 1-based entries) of the Heisenberg brackets [e_2i-1, e_2i] = e_n, n = 3, 5, 7, and
    the filiform ones [e_1, e_i] = e_i+1, n = 4..6."""
    heis = [(n, [(2 * i - 1, 2 * i, n, 1.0) for i in range(1, n // 2 + 1)]) for n in (3, 5, 7)]
    fili = [(n, [(1, i, i + 1, 1.0) for i in range(2, n)]) for n in (4, 5, 6)]
    return heis + fili


def _sparse(nf, workloads, outdir):
    import oracles

    out = []
    for n, entries in _sparse_brackets():
        mu = nf.LieBracket.from_entries(n, entries)
        # H = e^T - 1/2 e^T' for the first and last basis 3-forms the oracle's d sends to 0
        closed = np.flatnonzero(~np.abs(oracles.packed_ce(np.eye(math.comb(n, 3)),
                                                            mu.coeffs, 3)).any(axis=0))
        coeffs = np.zeros(math.comb(n, 3))
        coeffs[closed[0]], coeffs[closed[-1]] = 1.0, -0.5
        H, g = nf.KForm(n, 3, coeffs), np.eye(n)
        out.append((nf.codifferential(H, mu, g), nf.hodge_laplacian(H, mu, g),
                    nf.ce_differential(H, mu), nf.grf_rhs(mu, nf.GrfState(nf.Metric(g), H)),
                    [nf.gbf_rhs(spec, mu, H) for spec in ("ric", "ric-h2")]))
    return out


# command lines that exit 2, each on a flag the CLI or the library rejects
CLI_EXIT_2 = [
    ["fly", "--input", "heisenberg3"],
    [],
    ["check", "--input", "heisenberg3", "--tol", "0"],
    ["check", "--input", "heisenberg3", "--tol", "nan"],
    ["check", "--input", "heisenberg3", "--tol", "x"],
    ["ricci"],
    ["soliton-fit"],
    ["grf", "--input", "heisenberg3", "--t-start", "2", "--t-end", "1"],
    ["grf", "--input", "heisenberg3", "--t-start", "1", "--t-end", "1"],
    ["grf", "--input", "heisenberg3", "--t-end=nan"],
    ["grf", "--input", "heisenberg3", "--t-start=-inf"],
    ["grf", "--input", "heisenberg3", "--t-start", "-1e-3"],
    ["grf", "--input", "heisenberg3", "--direction", "sideways"],
    ["grf", "--input", "heisenberg3", "--rtol", "inf"],
    ["bracket-flow", "--input", "heisenberg3", "--atol", "0"],
    ["bracket-flow", "--input", "heisenberg3", "--phi", "warp"],
    ["tmin-sweep"],
    ["tmin-sweep", "--a-values", ""],
    ["tmin-sweep", "--a-values", "x,y"],
    ["tmin-sweep", "--a-values", "nan"],
    ["tmin-sweep", "--a-values", "1", "--horizon", "0"],
    ["tmin-sweep", "--a-values", "1", "--t-long", "inf"],
]


def _readme_cli():
    """The argv of each nilflow command line in README.md's CLI block."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line, comments=True) for line in lines if line.strip()]
    assert all(argv[0] == "nilflow" for argv in argvs), "README CLI block changed shape"
    return [argv[1:] for argv in argvs]


def _files():
    out = {}
    for name in sorted(os.listdir()):
        with open(name, "rb") as fh:
            out[name] = fh.read()
    return out


def _cli(nf, workloads, outdir):
    from nilflow.cli import main

    out = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as rundir:
        os.chdir(rundir)  # contextlib.chdir needs Python 3.11; the package supports 3.10
        try:
            for argv in _readme_cli() + CLI_EXIT_2:
                before = _files()
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                written = {name: data for name, data in _files().items()
                           if before.get(name) != data}
                out.append((argv, code, stdout.getvalue(), written))
        finally:
            os.chdir(home)
    return out


SECTIONS = (("heis3 forward", _heis3), ("heis3 blowup_time", _heis3_blowup),
            ("nil7 pairs", _nil7), ("tmin_sweep", _sweep), ("flow errors", _flow_errors),
            ("random brackets", _random), *SURVEY_SECTIONS, ("hodge", _hodge),
            ("forms", _forms), ("dorfman_eval", _dorfman_eval), ("from_dense", _from_dense),
            ("sparse", _sparse), ("cli", _cli))


def main(argv):
    if len(argv) != 2:
        sys.exit(f"usage: python {argv[0]} <src-dir>")
    sys.path[:0] = [os.path.abspath(argv[1]), os.path.join(ROOT, "bench"),
                    os.path.join(ROOT, "tests")]
    import nilflow as nf
    import workloads

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as outdir:
        for name, section in SECTIONS:
            h = hashlib.sha256()
            _feed(h, section(nf, workloads, outdir))
            print(f"{h.hexdigest()}  {name}")
            total.update(h.digest())
    print(f"{total.hexdigest()}  all")


if __name__ == "__main__":
    main(sys.argv)
