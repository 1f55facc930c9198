"""Classification of the quaternionic Hopf fibration S^3 -> S^7 -> S^4(1/2),
read from configs/hopf.yaml.

The fibers are totally geodesic with |A|^2 = 12 and the scalar curvatures
are s_h = 48, s_ghat = 6.  The config's joint pairs are the splittings of
the low spherical harmonics of S^7 into horizontal and vertical
eigenvalues: pullbacks from the base carry vertical eigenvalue 0, and the
degree-one harmonics split as 4 + 3.  Everything here is spectral; no
discretization applies to a 4-dimensional base factor.
"""

from fractions import Fraction
from pathlib import Path

from cscbif import cli, variation

CONFIG = Path(__file__).resolve().parent / "configs" / "hopf.yaml"
cfg = cli.load_config(str(CONFIG))
family = cfg.family

print("== canonical variation of the quaternionic Hopf fibration ==")
for t in (Fraction(1, 4), Fraction(1), Fraction(4)):
    print(f"  s(g({t})) = {variation.scalar_curvature(family, t)}")

eps = variation.stability_epsilon(family)
print(f"stability threshold eps = {eps}")
print("on (0, eps) every degeneracy instant is horizontal and the")
print("bifurcating solutions are constant along the fibers")

print()
print(f"== classification on ({cfg.t_min}, {cfg.t_max}] ==")
report = variation.classify_window(family, cfg.t_min, cfg.t_max)
print(f"nondiscrete: {report.nondiscrete}")
print(f"degenerate set source: {report.d_source} (complete: {report.d_complete})")
print(f"equality D = D_hor = B on the window: {report.stability_equality}")
for row in report.rows:
    inst = row.instant
    witness = ", ".join(f"({b}, {lam})" for b, lam in inst.witnesses)
    cert = row.certificate
    print(f"  t = {float(inst.t):.15f}  witnesses {witness}")
    print(f"      index {cert.index_below} -> {cert.index_above}, "
          f"fiber-constant branches: {row.fiber_constancy_guaranteed}")
