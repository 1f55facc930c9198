"""End-to-end acceptance gate.

Each test pins one headline behavior with a fixed tolerance and records a
single PASS/FAIL line, echoed in the terminal summary.  Reference values
are closed forms or the independent oracles from conftest; nothing here
is tuned to the implementation.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

import cscbif
from cscbif import cli, continuation, galerkin, variation

from conftest import (
    ACCEPTANCE_LINES,
    ablated_nondiscrete_families,
    b_sequence,
    brute_force_instants,
    linearization_at_one,
    one_evaluation,
)


def _record(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"{name}: {detail}"


class _Check:
    """Collects sub-assertions so one criterion reports a single verdict."""

    def __init__(self):
        self.failures = []

    def expect(self, condition, detail):
        if not condition:
            self.failures.append(detail)

    def conclude(self, name):
        _record(name, not self.failures, "; ".join(self.failures))


# ---------------------------------------------------------------------------


def test_product_classification(circle_sphere):
    chk = _Check()
    t0 = time.perf_counter()
    rep = variation.classify_window(circle_sphere, Fraction(1, 1000), 2)
    elapsed = time.perf_counter() - t0

    expected = tuple(Fraction(1, j * j) for j in range(31, 0, -1))
    chk.expect(rep.instants == expected, f"instants {rep.instants[:3]}...")
    chk.expect(rep.horizontal_instants == expected, "horizontal part differs")
    chk.expect(rep.certified_instants == expected, "certified part differs")
    seq = b_sequence(circle_sphere, 31)
    chk.expect(
        all(a > b for a, b in zip(seq, seq[1:])), "sequence not strictly decreasing"
    )
    chk.expect(seq[-1] == Fraction(1, 961), "tail of the sequence is off")
    chk.expect(seq[-1] < Fraction(1, 900), "sequence does not approach 0")
    chk.expect(elapsed < 1.0, f"took {elapsed:.2f} s")
    chk.conclude("product-classification")


def test_degeneracy_enumeration_vs_brute_force(
    circle_sphere, wide_circle_sphere3, sphere_sphere
):
    cases = [
        (
            circle_sphere,
            [(Fraction(j * j), Fraction(l * (l + 1))) for j in range(33) for l in range(5)],
            (Fraction(1, 1000), Fraction(2)),
        ),
        (
            wide_circle_sphere3,
            [(Fraction(j * j, 4), Fraction(l * (l + 2))) for j in range(9) for l in range(4)],
            (Fraction(3, 10), Fraction(9)),
        ),
        (
            sphere_sphere,
            [(Fraction(i * (i + 1)), Fraction(l * (l + 1))) for i in range(8) for l in range(8)],
            (Fraction(1, 50), Fraction(3)),
        ),
    ]
    chk = _Check()
    for fam, pairs, window in cases:
        got = sorted(float(i.t) for i in variation.enumerate_degeneracy(fam, *window))
        ref = brute_force_instants(fam, pairs, *window)
        label = f"{fam.base.name} x {fam.fiber.name}"
        chk.expect(len(got) == len(ref), f"{label}: {len(got)} vs {len(ref)} instants")
        for g, r in zip(got, ref):
            chk.expect(abs(g - r) < 1e-6, f"{label}: {g} vs {r}")
    chk.conclude("degeneracy-oracle")


def test_quaternionic_hopf_window(hopf_family):
    chk = _Check()
    eps = variation.stability_epsilon(hopf_family)
    chk.expect(eps == Fraction(1, 4), f"epsilon {eps}")
    chk.expect(isinstance(eps, Fraction), "epsilon not exact")

    rep = variation.classify_window(hopf_family, Fraction(1, 100), Fraction(6, 25))
    smallest_b = (3 * math.sqrt(2) - 4) / 2  # root for the first eigenvalue b = 16
    chk.expect(
        abs(float(max(rep.instants)) - smallest_b) < 1e-12,
        f"instant from b = 16 at {max(rep.instants)}",
    )
    chk.expect(len(rep.rows) == 3, f"{len(rep.rows)} instants in the window")
    chk.expect(
        rep.instants == rep.horizontal_instants == rep.certified_instants,
        "D, D_hor, B differ inside the stability window",
    )
    chk.expect(
        all(r.fiber_constancy_guaranteed for r in rep.rows),
        "an instant lost the no-symmetry-breaking flag",
    )
    chk.expect(rep.stability_equality, "window equality flag missing")
    chk.conclude("hopf-window")


def test_nondiscreteness_and_ablations(nondiscrete_family):
    chk = _Check()
    verdict = variation.check_nondiscreteness(nondiscrete_family)
    chk.expect(verdict.nondiscrete, "synthetic family not flagged")
    chk.expect(verdict.witness == (Fraction(2), Fraction(2)), f"witness {verdict.witness}")
    rep = variation.classify_window(nondiscrete_family, Fraction(1, 10), 3)
    chk.expect(rep.nondiscrete, "classification misses the verdict")

    for name, fam in ablated_nondiscrete_families().items():
        res = variation.check_nondiscreteness(fam)
        chk.expect(not res.nondiscrete, f"{name}: still nondiscrete")
        instants = variation.enumerate_degeneracy(fam, Fraction(1, 7), 3)
        chk.expect(len(instants) < 40, f"{name}: windowed set not finite")
    chk.conclude("nondiscreteness-ablation")


def test_morse_index_jump(circle_sphere):
    chk = _Check()
    chk.expect(
        variation.morse_index(circle_sphere, 0.9) == 3,
        f"index(0.9) = {variation.morse_index(circle_sphere, 0.9)}",
    )
    chk.expect(
        variation.morse_index(circle_sphere, 1.1) == 1,
        f"index(1.1) = {variation.morse_index(circle_sphere, 1.1)}",
    )
    for t_l in b_sequence(circle_sphere, 5):
        cert = variation.certify_bifurcation(circle_sphere, t_l)
        chk.expect(
            cert.index_below != cert.index_above,
            f"no jump at t = {t_l}",
        )
    chk.conclude("morse-index-jump")


def test_gradient_consistency(circle_sphere):
    chk = _Check()
    model = galerkin.build_model(circle_sphere, 8, 6)
    rng = np.random.default_rng(29)
    h = 1e-6
    for trial in range(10):
        coeffs = 0.05 * rng.standard_normal(model.shape)
        coeffs[0, 0] = np.sqrt(model.volume_at_one)
        res = galerkin.residual(one_evaluation(model, 1.0, coeffs))[0]
        fd = np.zeros(model.shape)
        for idx in np.ndindex(model.shape):
            for sign in (+1, -1):
                pert = coeffs.copy()
                pert[idx] += sign * h
                fd[idx] += sign * galerkin.energy(one_evaluation(model, 1.0, pert))[0]
        fd /= 2 * h
        rel = np.abs(fd - res).max() / np.abs(res).max()
        chk.expect(rel < 1e-6, f"trial {trial}: relative error {rel:.2e}")

    # fourth-order stencil: second-order differences leave ~1e-8 roundoff
    # at this residual scale, right at the tolerance
    t = 0.7
    hj = 1e-3
    lin = np.diag(linearization_at_one(model, t).ravel())
    base = galerkin.constant_state(model, t)
    fd_jac = np.zeros((model.n_modes, model.n_modes))
    for col, idx in enumerate(np.ndindex(model.shape)):
        def shifted(step):
            pert = base.coeffs[0].copy()
            pert[idx] += step
            return galerkin.residual(one_evaluation(model, t, pert)).ravel()

        fd_jac[:, col] = (
            8 * (shifted(hj) - shifted(-hj)) - (shifted(2 * hj) - shifted(-2 * hj))
        ) / (12 * hj)
    err = np.abs(fd_jac - lin).max()
    chk.expect(err < 1e-8, f"Jacobian error {err:.2e}")
    chk.conclude("gradient-consistency")


def test_branch_point_location(circle_sphere):
    chk = _Check()
    t0 = time.perf_counter()
    model = galerkin.build_model(circle_sphere, 32, 8)
    points = continuation.detect_branch_points(model, 0.2, 1.2)
    elapsed = time.perf_counter() - t0
    chk.expect(len(points) == 2, f"{len(points)} branch points")
    for bp, exact in zip(points, (0.25, 1.0)):
        chk.expect(abs(bp.t - exact) < 1e-9, f"t = {bp.t} vs {exact}")
    chk.expect(elapsed < 10.0, f"took {elapsed:.1f} s")
    chk.conclude("branch-point-location")


def test_bifurcating_branch(cs_model, cs_branch_point):
    chk = _Check()
    start, errors = continuation.switch_branch(cs_model, [cs_branch_point], 1e-2)
    assert errors == [None]
    branch = continuation.continue_branch(
        cs_model, start, -1, 40, 4e-4, origins=[cs_branch_point]
    )
    chk.expect(len(branch) >= 12, f"only {len(branch)} samples")
    samples = branch.samples
    for t, residual_norm, u_distance in zip(samples.t.tolist(), samples.residual_norm.tolist(),
                                            samples.u_distance.tolist()):
        chk.expect(
            residual_norm < 1e-10,
            f"residual {residual_norm:.2e} at t = {t}",
        )
        chk.expect(u_distance > 0, "a sample collapsed to the constant")
    tail = branch.distances[-10:]
    chk.expect(
        all(a > b for a, b in zip(tail, tail[1:])),
        "distance not monotone over the last 10 samples",
    )
    chk.expect(tail[-1] < 1e-6, f"final distance {tail[-1]:.2e}")
    chk.expect(
        abs(branch.ts[-1] - cs_branch_point.t) < 1e-8,
        f"branch ends at t = {branch.ts[-1]}",
    )
    chk.conclude("bifurcating-branch")


def test_fiber_constancy_trials(cs_model, cs_branch_point):
    chk = _Check()
    report = continuation.verify_fiber_constancy(
        cs_model, cs_branch_point, trials=20, seed=0
    )
    chk.expect(len(report.trials) == 20, f"{len(report.trials)} trials")
    for row in report.trials:
        chk.expect(row.converged, f"trial {row.index} did not converge")
        chk.expect(row.nontrivial, f"trial {row.index} fell back to the constant")
        chk.expect(
            row.fiber_fraction is not None and row.fiber_fraction < 1e-8,
            f"trial {row.index}: fraction {row.fiber_fraction}",
        )
    chk.expect(report.passed, "violations recorded")
    chk.conclude("fiber-constancy-trials")


def test_double_reduction(cs_model, cs_branch_point):
    chk = _Check()
    result = continuation.lyapunov_schmidt_reduce(cs_model, cs_branch_point, 1e-2, 8)
    chk.expect(result.kernel_dim == 2, f"kernel dim {result.kernel_dim}")
    chk.expect(len(result.samples) == 8, f"{len(result.samples)} directions")
    chk.expect(
        result.discrepancy < 1e-8, f"discrepancy {result.discrepancy:.2e}"
    )
    chk.conclude("double-reduction")


def test_csv_determinism(tmp_path):
    config_dir = tmp_path / "cfg"
    config_dir.mkdir()
    shipped = (
        Path(__file__).resolve().parent.parent / "scripts" / "configs"
        / "circle_sphere.yaml"
    )
    with open(shipped) as fh:
        base = yaml.safe_load(fh)
    base["window"] = {"t_min": "1/2", "t_max": "3/2"}
    base["galerkin"] = {"N_b": 8, "N_f": 6}
    base["continuation"].update(
        {"steps": 12, "trials": 6, "reduce_samples": 4}
    )
    path = config_dir / "family.yaml"
    path.write_text(yaml.safe_dump(base))

    chk = _Check()
    for command, names in (
        ("branch", ("branch_0.csv",)),
        ("verify", ("verify.csv",)),
    ):
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        code_a = cli.main([command, "--config", str(path), "--out", str(out_a)])
        code_b = cli.main([command, "--config", str(path), "--out", str(out_b)])
        chk.expect(code_a == 0 and code_b == 0, f"{command} exit {code_a}/{code_b}")
        for name in names:
            ba = (out_a / name).read_bytes()
            bb = (out_b / name).read_bytes()
            chk.expect(ba == bb, f"{command}: {name} differs between runs")
        ra = json.loads((out_a / "report.json").read_text())
        rb = json.loads((out_b / "report.json").read_text())
        chk.expect(ra == rb, f"{command}: reports differ")
    chk.conclude("csv-determinism")
