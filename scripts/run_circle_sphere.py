"""Full pipeline on S^1(1) x S^2(1), read from configs/circle_sphere.yaml.

Classifies the degenerate set on the config window (1/1000, 2] in exact
arithmetic, then discretizes the product at the config resolution, switches
onto the nontrivial branch at t = 1, and continues it in both directions
on the fiber-constant subspace, the path `cscbif branch` takes.
Prints a summary of every stage.
"""

from fractions import Fraction
from pathlib import Path

from cscbif import cli, continuation, galerkin, variation

CONFIG = Path(__file__).resolve().parent / "configs" / "circle_sphere.yaml"
cfg = cli.load_config(str(CONFIG))
family = cfg.family
cont = cfg.continuation

print(f"== exact classification on ({cfg.t_min}, {cfg.t_max}] ==")
report = variation.classify_window(family, cfg.t_min, cfg.t_max)
print(f"nondiscrete: {report.nondiscrete}")
print(f"degenerate set source: {report.d_source} (complete: {report.d_complete})")
print(f"stability threshold eps = {report.epsilon}")
print(f"instants in window: {len(report.rows)}")
for row in report.rows[::-1][:6]:
    inst = row.instant
    witness = ", ".join(f"({b}, {lam})" for b, lam in inst.witnesses)
    if row.certificate is not None:
        verdict = (f"index {row.certificate.index_below} -> "
                   f"{row.certificate.index_above}")
    else:
        verdict = row.certify_error
    print(f"  t = {str(inst.t):>7}  witnesses {witness:<14} {verdict}")
if len(report.rows) > 6:
    print(f"  ... {len(report.rows) - 6} more, down to t = {report.rows[0].instant.t}")

first = report.certified_instants[::-1][:5]
print(f"first bifurcation instants 1/j^2: {[str(t) for t in first]}")

print()
n_b, n_f = cfg.galerkin.n_b, cfg.galerkin.n_f
print(f"== Galerkin discretisation ({n_b} Fourier x {n_f} Legendre) ==")
model = galerkin.build_model(family, n_b, n_f)
print(f"modes: {model.n_modes}, grid {model.shape}")

points = continuation.detect_branch_points(model, Fraction(1, 2), Fraction(3, 2))
bp = points[0]
print(f"branch point at t = {bp.t}, kernel dim {bp.kernel_dim}, "
      f"horizontal: {bp.horizontal}")

(shrink,) = continuation.follow_branch(model, [bp], cont.amplitude, -1, cont.steps, cont.ds)
samples = shrink.samples
ts, dists = samples.t.tolist(), samples.u_distance.tolist()
print(f"switched branch on the {bp.subspace} subspace: t = {ts[0]:.12f}, "
      f"|u - 1| = {dists[0]:.3e}, "
      f"fiber fraction = {samples.fiber_fraction[0]:.3e}")

print()
print("== continuation toward the branch point ==")
print(f"stop reason: {shrink.stop_reason}, samples: {len(shrink)}")
residuals = samples.residual_norm.tolist()
for i in range(0, len(shrink), max(1, len(shrink) // 5)):
    print(f"  t = {ts[i]:.9f}  |u - 1| = {dists[i]:.3e}  "
          f"residual = {residuals[i]:.1e}")
print(f"final: t = {ts[-1]:.12f}, |u - 1| = {dists[-1]:.3e}, "
      f"smallest fiber-block margin = {shrink.fiber_margin:.3f}")

print()
print("== continuation away from the branch point ==")
(grow,) = continuation.follow_branch(model, [bp], cont.amplitude, +1, 60, 2e-2)
last = grow.samples[-1:]
print(f"stop reason: {grow.stop_reason}, samples: {len(grow)}")
print(f"final: t = {last.t[0]:.6f}, |u - 1| = {last.u_distance[0]:.4f}, "
      f"min u on grid = {last.grid.min():.4f}")

print()
print("== fiber constancy along the branch ==")
fc = continuation.verify_fiber_constancy(model, bp, trials=10, seed=cont.seed)
converged = sum(1 for row in fc.trials if row.converged)
print(f"trials converged: {converged}/{len(fc.trials)}, "
      f"max fiber fraction = {fc.max_fraction:.2e}, passed: {fc.passed}")
