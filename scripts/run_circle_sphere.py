"""Full pipeline on S^1(1) x S^2(1), read from configs/circle_sphere.yaml.

Classifies the degenerate set on the config window (1/1000, 2] in exact
arithmetic, then discretizes the product at the config resolution, switches
onto the nontrivial branch at t = 1, and continues it in both directions.
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

seq = variation.b_sequence(family, 8)
print(f"first bifurcation instants 1/j^2: {[str(t) for t in seq[:5]]}")

print()
n_b, n_f = cfg.galerkin.n_b, cfg.galerkin.n_f
print(f"== Galerkin discretisation ({n_b} Fourier x {n_f} Legendre) ==")
model = galerkin.build_model(family, n_b, n_f)
print(f"modes: {model.n_modes}, grid {model.shape}")

points = continuation.detect_branch_points(model, Fraction(1, 2), Fraction(3, 2))
bp = points[0]
print(f"branch point at t = {bp.t}, kernel dim {bp.kernel_dim}, "
      f"horizontal: {bp.horizontal}")

state = continuation.switch_branch(model, bp, amplitude=cont.amplitude)
print(f"switched branch: t = {state.t:.12f}, "
      f"|u - 1| = {galerkin.u_distance(model, state):.3e}, "
      f"fiber fraction = {galerkin.fiber_energy_fraction(state):.3e}")

print()
print("== continuation toward the branch point ==")
shrink = continuation.continue_branch(model, state, -1, cont.steps, cont.ds, origin=bp)
print(f"stop reason: {shrink.stop_reason}, samples: {len(shrink)}")
for s in shrink.samples[:: max(1, len(shrink) // 5)]:
    print(f"  t = {s.t:.9f}  |u - 1| = {s.u_distance:.3e}  "
          f"residual = {s.residual_norm:.1e}")
last = shrink.samples[-1]
print(f"final: t = {last.t:.12f}, |u - 1| = {last.u_distance:.3e}")

print()
print("== continuation away from the branch point ==")
grow = continuation.continue_branch(model, state, +1, 60, 2e-2, origin=bp)
last = grow.samples[-1]
grid_min = galerkin.grid_values(model, last.state).min()
print(f"stop reason: {grow.stop_reason}, samples: {len(grow)}")
print(f"final: t = {last.t:.6f}, |u - 1| = {last.u_distance:.4f}, "
      f"min u on grid = {grid_min:.4f}")

print()
print("== fiber constancy along the branch ==")
fc = continuation.verify_fiber_constancy(model, bp, trials=10, seed=cont.seed)
converged = sum(1 for row in fc.trials if row.converged)
print(f"trials converged: {converged}/{len(fc.trials)}, "
      f"max fiber fraction = {fc.max_fraction:.2e}, passed: {fc.passed}")
