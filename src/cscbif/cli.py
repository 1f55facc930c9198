"""Config-driven command line: classification, branch following, and
fiber-constancy verification from a single YAML document.

Numeric literals written as integers or fraction strings ("1/4", "0.05")
are carried as exact rationals end to end; YAML floats stay floats.  The
report echoes the effective configuration in a form that parses back to an
equivalent one, and all tabular output is byte-reproducible for a fixed
config and seed: no timestamps, no absolute paths, deterministic solvers.

Exit codes: 0 success, 1 run failure, 2 configuration, 3 incomplete
spectrum, 4 unsupported geometry, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace
from fractions import Fraction

import yaml

from . import __version__, continuation, galerkin, variation
from .errors import (
    ConfigurationError,
    CscbifError,
    HypothesisViolatedError,
    IncompleteSpectrumError,
    InvalidArgumentError,
    PreconditionError,
    ReductionFailedError,
    UnsupportedGeometryError,
)
from .rationals import as_rational, fmt_number
from .spectra import (
    ManifoldDescriptor,
    SphereSpectrum,
    explicit_manifold,
    explicit_spectrum,
    sphere_manifold,
)
from .variation import ALL_PAIRS, ExplicitJoint, JointPair, SubmersionFamily

_EXIT_FAILURE = 1
_EXIT_CONFIG = 2
_EXIT_SPECTRUM = 3
_EXIT_GEOMETRY = 4
_EXIT_VERIFY = 5

_DISCREPANCY_BOUND = 1e-8


# ---------------------------------------------------------------------------
# config schema

@dataclass(frozen=True)
class GalerkinConfig:
    n_b: int = 16
    n_f: int = 8


@dataclass(frozen=True)
class ContinuationConfig:
    ds: float = 4e-4
    steps: int = 40
    amplitude: float = 1e-2
    seed: int = 0
    direction: int = -1
    trials: int = 20
    reduce_radius: float = 1e-2
    reduce_samples: int = 8


@dataclass(frozen=True)
class FamilyConfig:
    family: SubmersionFamily
    t_min: object
    t_max: object
    galerkin: GalerkinConfig
    continuation: ContinuationConfig
    has_galerkin: bool
    has_continuation: bool
    raw: dict = field(compare=False, repr=False, default_factory=dict)


def _fail(path: str, message: str):
    raise ConfigurationError(message, path=path)


def _mapping(node, path):
    if not isinstance(node, dict):
        _fail(path, f"expected a mapping, got {type(node).__name__}")
    return node


def _take(node: dict, path: str, known: dict):
    """Pull known keys out of a mapping node, rejecting strays."""
    extra = set(node) - set(known)
    if extra:
        _fail(path, f"unknown key(s) {sorted(extra)}; expected {sorted(known)}")
    out = {}
    for key, required in known.items():
        if key in node:
            out[key] = node[key]
        elif required:
            _fail(path, f"missing required key {key!r}")
    return out


def _exact(value, path):
    """Exact rational when exactly representable (int, "p/q", decimal
    string); YAML floats pass through as floats."""
    if isinstance(value, bool):
        _fail(path, "booleans are not numbers")
    if isinstance(value, float):
        if not math.isfinite(value):
            _fail(path, f"non-finite value {value!r}")
        return value
    try:
        return as_rational(value)
    except InvalidArgumentError as exc:
        _fail(path, str(exc))


def _int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"expected >= {minimum}, got {value}")
    return value


def _float(value, path):
    if isinstance(value, bool):
        _fail(path, "booleans are not numbers")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError):
            _fail(path, f"cannot read {value!r} as a real number")
    _fail(path, f"expected a real number, got {value!r}")


def _entry_list(value, path):
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of [eigenvalue, multiplicity] pairs")
    entries = []
    for k, item in enumerate(value):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            _fail(f"{path}[{k}]", f"expected a [eigenvalue, multiplicity] pair, got {item!r}")
        lam = _exact(item[0], f"{path}[{k}][0]")
        if isinstance(lam, float):
            _fail(f"{path}[{k}][0]", "spectrum eigenvalues must be exact (int or \"p/q\")")
        mult = _int(item[1], f"{path}[{k}][1]", minimum=1)
        entries.append((lam, mult))
    return entries


def _manifold(node, path) -> ManifoldDescriptor:
    node = _mapping(node, path)
    kind = node.get("kind")
    if kind == "sphere":
        got = _take(node, path, {"kind": True, "dim": True, "radius": True, "name": False})
        dim = _int(got["dim"], f"{path}.dim", minimum=1)
        radius = _exact(got["radius"], f"{path}.radius")
        if isinstance(radius, float):
            _fail(f"{path}.radius", "sphere radii must be exact (int or \"p/q\")")
        if radius <= 0:
            _fail(f"{path}.radius", f"radius must be positive, got {radius}")
        try:
            return sphere_manifold(dim, radius, name=got.get("name"))
        except CscbifError as exc:
            _fail(path, str(exc))
    if kind == "explicit":
        got = _take(node, path, {
            "kind": True, "name": False, "dim": True,
            "scalar_curvature": True, "spectrum": True, "complete_below": True,
        })
        dim = _int(got["dim"], f"{path}.dim", minimum=1)
        scal = _exact(got["scalar_curvature"], f"{path}.scalar_curvature")
        if isinstance(scal, float):
            _fail(f"{path}.scalar_curvature", "scalar curvature must be exact")
        entries = _entry_list(got["spectrum"], f"{path}.spectrum")
        bound = _exact(got["complete_below"], f"{path}.complete_below")
        name = got.get("name", path.rsplit(".", 1)[-1])
        try:
            return explicit_manifold(name, dim, scal, entries, bound)
        except CscbifError as exc:
            _fail(path, str(exc))
    _fail(f"{path}.kind", f"expected \"sphere\" or \"explicit\", got {kind!r}")


def _explicit_spectrum_node(node, path):
    got = _take(_mapping(node, path), path, {"spectrum": True, "complete_below": True})
    entries = _entry_list(got["spectrum"], f"{path}.spectrum")
    bound = _exact(got["complete_below"], f"{path}.complete_below")
    try:
        return explicit_spectrum(entries, bound)
    except CscbifError as exc:
        _fail(path, str(exc))


def parse_config(data, source: str | None = None) -> FamilyConfig:
    data = _mapping(data, source or "config")
    got = _take(data, source or "config", {
        "base": True, "fiber": True, "a_norm_sq": False,
        "joint_mode": False, "joint_pairs": False, "joint_total_at_one": False,
        "horizontal_spectrum": False,
        "window": True, "galerkin": False, "continuation": False,
    })

    base = _manifold(got["base"], "base")
    fiber = _manifold(got["fiber"], "fiber")
    a_sq = _exact(got.get("a_norm_sq", 0), "a_norm_sq")
    if isinstance(a_sq, float):
        _fail("a_norm_sq", "|A|^2 must be exact (int or \"p/q\")")

    mode_name = got.get("joint_mode", "all_pairs")
    if mode_name == "all_pairs":
        if "joint_pairs" in got:
            _fail("joint_pairs", "joint_pairs requires joint_mode: explicit")
        joint = ALL_PAIRS
        total = None
    elif mode_name == "explicit":
        raw_pairs = got.get("joint_pairs")
        if raw_pairs is None:
            _fail("joint_pairs", "joint_mode: explicit needs a joint_pairs list")
        if not isinstance(raw_pairs, list) or not raw_pairs:
            _fail("joint_pairs", "expected a nonempty list of [b, lam, multiplicity]")
        pairs = []
        for k, item in enumerate(raw_pairs):
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                _fail(f"joint_pairs[{k}]", f"expected [b, lam, multiplicity], got {item!r}")
            b = _exact(item[0], f"joint_pairs[{k}][0]")
            lam = _exact(item[1], f"joint_pairs[{k}][1]")
            if isinstance(b, float) or isinstance(lam, float):
                _fail(f"joint_pairs[{k}]", "joint eigenvalues must be exact")
            mult = _int(item[2], f"joint_pairs[{k}][2]", minimum=1)
            try:
                pairs.append(JointPair(b, lam, mult))
            except CscbifError as exc:
                _fail(f"joint_pairs[{k}]", str(exc))
        total = None
        if "joint_total_at_one" in got:
            total = _explicit_spectrum_node(got["joint_total_at_one"], "joint_total_at_one")
        joint = ExplicitJoint(tuple(pairs), total_at_one=total)
    else:
        _fail("joint_mode", f"expected \"all_pairs\" or \"explicit\", got {mode_name!r}")

    horizontal = None
    if "horizontal_spectrum" in got:
        horizontal = _explicit_spectrum_node(got["horizontal_spectrum"], "horizontal_spectrum")

    window = _take(_mapping(got["window"], "window"), "window",
                   {"t_min": True, "t_max": True})
    t_min = _exact(window["t_min"], "window.t_min")
    t_max = _exact(window["t_max"], "window.t_max")
    if not (t_min > 0 and t_min < t_max):
        _fail("window", f"need 0 < t_min < t_max, got ({t_min}, {t_max})")

    has_galerkin = "galerkin" in got
    gal = GalerkinConfig()
    if has_galerkin:
        g = _take(_mapping(got["galerkin"], "galerkin"), "galerkin",
                  {"N_b": False, "N_f": False})
        gal = GalerkinConfig(
            n_b=_int(g.get("N_b", gal.n_b), "galerkin.N_b", minimum=2),
            n_f=_int(g.get("N_f", gal.n_f), "galerkin.N_f", minimum=2),
        )

    has_continuation = "continuation" in got
    cont = ContinuationConfig()
    if has_continuation:
        c = _take(_mapping(got["continuation"], "continuation"), "continuation", {
            "ds": False, "steps": False, "amplitude": False, "seed": False,
            "direction": False, "trials": False,
            "reduce_radius": False, "reduce_samples": False,
        })
        direction = _int(c.get("direction", cont.direction), "continuation.direction")
        if direction not in (1, -1):
            _fail("continuation.direction", f"must be 1 or -1, got {direction}")
        cont = ContinuationConfig(
            ds=_float(c.get("ds", cont.ds), "continuation.ds"),
            steps=_int(c.get("steps", cont.steps), "continuation.steps", minimum=1),
            amplitude=_float(c.get("amplitude", cont.amplitude), "continuation.amplitude"),
            seed=_int(c.get("seed", cont.seed), "continuation.seed", minimum=0),
            direction=direction,
            trials=_int(c.get("trials", cont.trials), "continuation.trials", minimum=1),
            reduce_radius=_float(c.get("reduce_radius", cont.reduce_radius),
                                 "continuation.reduce_radius"),
            reduce_samples=_int(c.get("reduce_samples", cont.reduce_samples),
                                "continuation.reduce_samples", minimum=1),
        )
        if cont.ds <= 0:
            _fail("continuation.ds", f"must be positive, got {cont.ds}")
        if cont.reduce_radius <= 0:
            _fail("continuation.reduce_radius", f"must be positive, got {cont.reduce_radius}")

    try:
        family = SubmersionFamily(
            fiber=fiber, base=base, a_norm_sq=a_sq,
            joint_mode=joint, horizontal=horizontal,
        )
    except CscbifError as exc:
        _fail(source or "config", str(exc))

    cfg = FamilyConfig(
        family=family, t_min=t_min, t_max=t_max,
        galerkin=gal, continuation=cont,
        has_galerkin=has_galerkin, has_continuation=has_continuation,
        raw=data,
    )
    return cfg


def load_config(path: str) -> FamilyConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}")
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed YAML in {path}: {exc}")
    return parse_config(data, source=path)


# ---------------------------------------------------------------------------
# config echo (report side of the round trip)

def _echo_number(value):
    """JSON form preserving parse semantics: Fractions as "p/q" strings
    (or bare ints), native ints and floats as JSON numbers."""
    if isinstance(value, bool):
        raise InvalidArgumentError("booleans are not numbers")
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def _echo_entries(spectrum):
    return [[_echo_number(e.value), e.multiplicity] for e in spectrum.entries]


def _echo_manifold(desc: ManifoldDescriptor):
    spec = desc.spectrum
    if isinstance(spec, SphereSpectrum) and spec.dim == desc.dim:
        return {
            "kind": "sphere", "dim": desc.dim,
            "radius": _echo_number(spec.radius), "name": desc.name,
        }
    return {
        "kind": "explicit", "name": desc.name, "dim": desc.dim,
        "scalar_curvature": _echo_number(desc.scalar_curvature),
        "spectrum": _echo_entries(spec),
        "complete_below": _echo_number(spec.completeness_bound()),
    }


def echo_config(cfg: FamilyConfig) -> dict:
    fam = cfg.family
    out = {
        "base": _echo_manifold(fam.base),
        "fiber": _echo_manifold(fam.fiber),
        "a_norm_sq": _echo_number(fam.a_norm_sq),
    }
    if isinstance(fam.joint_mode, ExplicitJoint):
        out["joint_mode"] = "explicit"
        out["joint_pairs"] = [
            [_echo_number(p.horizontal), _echo_number(p.fiber), p.multiplicity]
            for p in fam.joint_mode.pairs
        ]
        if fam.joint_mode.total_at_one is not None:
            tot = fam.joint_mode.total_at_one
            out["joint_total_at_one"] = {
                "spectrum": _echo_entries(tot),
                "complete_below": _echo_number(tot.completeness_bound()),
            }
    else:
        out["joint_mode"] = "all_pairs"
    if cfg.family.horizontal is not None:
        out["horizontal_spectrum"] = {
            "spectrum": _echo_entries(fam.horizontal),
            "complete_below": _echo_number(fam.horizontal.completeness_bound()),
        }
    out["window"] = {
        "t_min": _echo_number(cfg.t_min), "t_max": _echo_number(cfg.t_max),
    }
    if cfg.has_galerkin:
        out["galerkin"] = {"N_b": cfg.galerkin.n_b, "N_f": cfg.galerkin.n_f}
    if cfg.has_continuation:
        c = cfg.continuation
        out["continuation"] = {
            "ds": c.ds, "steps": c.steps, "amplitude": c.amplitude,
            "seed": c.seed, "direction": c.direction, "trials": c.trials,
            "reduce_radius": c.reduce_radius, "reduce_samples": c.reduce_samples,
        }
    return out


# ---------------------------------------------------------------------------
# report assembly

@dataclass
class CliReport:
    payload: dict
    tables: dict
    exit_code: int


def _report_skeleton(command: str, cfg: FamilyConfig, provenance: list) -> dict:
    return {
        "tool": {"name": "cscbif", "version": __version__},
        "command": command,
        "config": echo_config(cfg),
        "provenance": provenance,
    }


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _witness_cell(witnesses) -> str:
    return ";".join(f"{fmt_number(b)}:{fmt_number(lam)}" for b, lam in witnesses)


def cmd_classify(cfg: FamilyConfig) -> CliReport:
    report = variation.classify_window(cfg.family, cfg.t_min, cfg.t_max)
    provenance = [
        {"quantity": "instants", "operation": "variation.classify_window",
         "inputs": {"t_min": fmt_number(cfg.t_min), "t_max": fmt_number(cfg.t_max)}},
        {"quantity": "epsilon", "operation": "variation.stability_epsilon", "inputs": {}},
        {"quantity": "nondiscrete", "operation": "variation.check_nondiscreteness",
         "inputs": {}},
        {"quantity": "certificates", "operation": "variation.certify_bifurcation",
         "inputs": {"t_star": "each horizontal instant"}},
    ]
    rows_json = []
    rows_csv = []
    for row in report.rows:
        inst = row.instant
        cert = row.certificate
        rows_json.append({
            "t": fmt_number(inst.t),
            "witnesses": [[fmt_number(b), fmt_number(lam)] for b, lam in inst.witnesses],
            "horizontal": inst.horizontal,
            "certified": cert is not None,
            "certificate": None if cert is None else {
                "index_below": cert.index_below,
                "index_above": cert.index_above,
                "monotonicity_witness": [fmt_number(v) for v in cert.monotonicity_witness],
            },
            "certify_error": row.certify_error,
            "fiber_constancy_guaranteed": row.fiber_constancy_guaranteed,
        })
        rows_csv.append((
            fmt_number(inst.t),
            _witness_cell(inst.witnesses),
            str(inst.horizontal).lower(),
            str(cert is not None).lower(),
            str(row.fiber_constancy_guaranteed).lower(),
        ))

    payload = _report_skeleton("classify", cfg, provenance)
    payload["results"] = {
        "window": {"t_min": fmt_number(cfg.t_min), "t_max": fmt_number(cfg.t_max)},
        "nondiscrete": report.nondiscrete,
        "nondiscrete_witness": None if report.nondiscrete_witness is None else {
            "base_eigenvalue": fmt_number(report.nondiscrete_witness[0]),
            "fiber_eigenvalue": fmt_number(report.nondiscrete_witness[1]),
        },
        "degeneracy_set": "(0, inf)" if report.nondiscrete else "discrete",
        "degeneracy_source": report.d_source,
        "degeneracy_complete": report.d_complete,
        "epsilon": None if report.epsilon is None else fmt_number(report.epsilon),
        "stability_equality_on_window": report.stability_equality,
        "regime": {
            "base_scalar_nonpositive": report.regime.base_scalar_nonpositive,
            "oneill_positive": report.regime.oneill_positive,
            "interchanged_product_case": report.regime.interchanged_product_case,
        },
        "instants": rows_json,
    }
    tables = {"instants.csv": _csv(
        ("t", "witnesses", "horizontal", "certified", "fiber_constancy_guaranteed"),
        rows_csv,
    )}
    return CliReport(payload, tables, 0)


def _require_numerics(cfg: FamilyConfig, command: str):
    missing = [name for name, ok in (
        ("galerkin", cfg.has_galerkin), ("continuation", cfg.has_continuation),
    ) if not ok]
    if missing:
        raise ConfigurationError(
            f"{command} needs the {' and '.join(missing)} section(s)"
        )


def cmd_branch(cfg: FamilyConfig) -> CliReport:
    # geometry first: an undiscretizable family is exit 4 regardless of
    # which config sections are present
    model = galerkin.build_model(cfg.family, cfg.galerkin.n_b, cfg.galerkin.n_f)
    _require_numerics(cfg, "branch")
    cont = cfg.continuation
    points = continuation.detect_branch_points(model, cfg.t_min, cfg.t_max)

    provenance = [
        {"quantity": "branch_points", "operation": "continuation.detect_branch_points",
         "inputs": {"t_min": fmt_number(float(cfg.t_min)),
                    "t_max": fmt_number(float(cfg.t_max))}},
        {"quantity": "branches",
         "operation": "continuation.switch_branch + continuation.continue_branch",
         "inputs": {"amplitude": fmt_number(cont.amplitude),
                    "direction": cont.direction, "steps": cont.steps,
                    "ds": fmt_number(cont.ds)}},
    ]

    tables = {}
    rows_json = []
    successes = 0
    for k, bp in enumerate(points):
        entry = {
            "index": k,
            "t": fmt_number(float(bp.t)),
            "kernel_dim": bp.kernel_dim,
            "kernel_modes": [list(m) for m in bp.kernel_modes],
            "horizontal": bp.horizontal,
            "predicted_instant": fmt_number(bp.t),
        }
        try:
            start = continuation.switch_branch(model, bp, cont.amplitude)
            branch = continuation.continue_branch(
                model, start, cont.direction, cont.steps, cont.ds, origin=bp,
            )
        except CscbifError as exc:
            entry["status"] = f"failed: {exc}"
            rows_json.append(entry)
            continue
        successes += 1
        side = start.t - bp.t
        entry["status"] = "ok"
        entry["observed_t_side"] = (
            "below" if side < -1e-12 else ("above" if side > 1e-12 else "at")
        )
        entry["samples"] = len(branch.samples)
        entry["stop_reason"] = branch.stop_reason
        name = f"branch_{k}.csv"
        entry["file"] = name
        tables[name] = _csv(
            ("t", "u_minus_one_norm", "energy", "fiber_fraction", "residual_norm"),
            [(fmt_number(s.t), fmt_number(s.u_distance), fmt_number(s.energy),
              fmt_number(s.fiber_fraction), fmt_number(s.residual_norm))
             for s in branch.samples],
        )
        rows_json.append(entry)

    payload = _report_skeleton("branch", cfg, provenance)
    payload["results"] = {
        "window": {"t_min": fmt_number(cfg.t_min), "t_max": fmt_number(cfg.t_max)},
        "n_branch_points": len(points),
        "branch_points": rows_json,
    }
    code = 0 if (not points or successes) else _EXIT_FAILURE
    return CliReport(payload, tables, code)


def cmd_verify(cfg: FamilyConfig) -> CliReport:
    model = galerkin.build_model(cfg.family, cfg.galerkin.n_b, cfg.galerkin.n_f)
    _require_numerics(cfg, "verify")
    cont = cfg.continuation
    points = continuation.detect_branch_points(model, cfg.t_min, cfg.t_max)

    provenance = [
        {"quantity": "branch_points", "operation": "continuation.detect_branch_points",
         "inputs": {"t_min": fmt_number(float(cfg.t_min)),
                    "t_max": fmt_number(float(cfg.t_max))}},
        {"quantity": "reduction", "operation": "continuation.lyapunov_schmidt_reduce",
         "inputs": {"sample_radius": fmt_number(cont.reduce_radius),
                    "n_samples": cont.reduce_samples}},
        {"quantity": "fiber_constancy", "operation": "continuation.verify_fiber_constancy",
         "inputs": {"trials": cont.trials, "seed": cont.seed,
                    "amplitude": fmt_number(cont.amplitude)}},
    ]

    rows_json = []
    rows_csv = []
    any_failed = False
    for bp in points:
        entry = {
            "t": fmt_number(float(bp.t)),
            "kernel_dim": bp.kernel_dim,
            "horizontal": bp.horizontal,
        }
        discrepancy = None
        try:
            red = continuation.lyapunov_schmidt_reduce(
                model, bp, cont.reduce_radius, cont.reduce_samples,
            )
        except (HypothesisViolatedError, ReductionFailedError, PreconditionError) as exc:
            entry["reduction"] = {"status": _status_of(exc), "detail": str(exc)}
            red = None
        else:
            ok = red.discrepancy < _DISCREPANCY_BOUND
            discrepancy = red.discrepancy
            entry["reduction"] = {
                "status": "ok" if ok else "discrepancy-exceeded",
                "discrepancy": fmt_number(red.discrepancy),
            }

        fraction = None
        try:
            fc = continuation.verify_fiber_constancy(
                model, bp, cont.trials, seed=cont.seed, amplitude=cont.amplitude,
            )
        except PreconditionError as exc:
            entry["fiber_constancy"] = {"status": _status_of(exc), "detail": str(exc)}
            fc = None
        else:
            fraction = fc.max_fraction
            entry["fiber_constancy"] = {
                "status": "ok" if fc.passed else "fraction-exceeded",
                "max_fraction": fmt_number(fc.max_fraction),
                "trials": len(fc.trials),
                "seed": fc.seed,
            }

        ok = (
            red is not None and red.discrepancy < _DISCREPANCY_BOUND
            and fc is not None and fc.passed
        )
        entry["status"] = "ok" if ok else "failed"
        any_failed = any_failed or not ok
        rows_json.append(entry)
        rows_csv.append((
            fmt_number(float(bp.t)),
            str(bp.kernel_dim),
            str(bp.horizontal).lower(),
            "" if discrepancy is None else fmt_number(discrepancy),
            "" if fraction is None else fmt_number(fraction),
            entry["status"] if ok else (
                entry["reduction"]["status"] if entry["reduction"]["status"] != "ok"
                else entry["fiber_constancy"]["status"]
            ),
        ))

    payload = _report_skeleton("verify", cfg, provenance)
    payload["results"] = {
        "window": {"t_min": fmt_number(cfg.t_min), "t_max": fmt_number(cfg.t_max)},
        "n_branch_points": len(points),
        "rows": rows_json,
        "passed": not any_failed,
    }
    tables = {"verify.csv": _csv(
        ("t", "kernel_dim", "horizontal", "reduction_discrepancy",
         "max_fiber_fraction", "status"),
        rows_csv,
    )}
    return CliReport(payload, tables, _EXIT_VERIFY if any_failed else 0)


def _status_of(exc) -> str:
    if isinstance(exc, HypothesisViolatedError):
        return "hypothesis-violated"
    if isinstance(exc, ReductionFailedError):
        return "reduction-failed"
    if isinstance(exc, PreconditionError):
        return "precondition-violated"
    return "failed"


# ---------------------------------------------------------------------------
# dispatch

def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cscbif-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_report(report: CliReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    text = json.dumps(report.payload, indent=2) + "\n"
    _atomic_write(os.path.join(out_dir, "report.json"), text)
    for name, content in report.tables.items():
        _atomic_write(os.path.join(out_dir, name), content)


def _parse_window_override(spec: str):
    parts = spec.split("..")
    if len(parts) != 2:
        raise ConfigurationError(
            f"--window expects the form a..b, got {spec!r}"
        )
    try:
        lo, hi = as_rational(parts[0]), as_rational(parts[1])
    except InvalidArgumentError as exc:
        raise ConfigurationError(f"--window: {exc}")
    if not (lo > 0 and lo < hi):
        raise ConfigurationError(f"--window: need 0 < a < b, got {spec!r}")
    return lo, hi


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cscbif",
        description="Degeneracy classification and numerical bifurcation "
                    "analysis for the constant-scalar-curvature equation "
                    "along canonical variations.",
    )
    parser.add_argument("--version", action="version", version=f"cscbif {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("classify", "enumerate and certify degeneracy instants over the window"),
        ("branch", "detect branch points and follow the bifurcating branches"),
        ("verify", "Lyapunov-Schmidt agreement and fiber-constancy trials"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--window", default=None, metavar="a..b",
                       help="override the config window")
        p.add_argument("--seed", default=None, type=int,
                       help="override the continuation seed")
    return parser


_COMMANDS = {"classify": cmd_classify, "branch": cmd_branch, "verify": cmd_verify}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.window is not None:
            lo, hi = _parse_window_override(args.window)
            cfg = replace(cfg, t_min=lo, t_max=hi)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigurationError("--seed must be nonnegative")
            cfg = replace(cfg, continuation=replace(cfg.continuation, seed=args.seed))
        report = _COMMANDS[args.command](cfg)
    except ConfigurationError as exc:
        print(f"cscbif: configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except IncompleteSpectrumError as exc:
        print(f"cscbif: incomplete spectrum: {exc}", file=sys.stderr)
        return _EXIT_SPECTRUM
    except UnsupportedGeometryError as exc:
        print(f"cscbif: unsupported geometry: {exc}", file=sys.stderr)
        if args.command in ("branch", "verify"):
            print("cscbif: hint: `classify` covers families the Galerkin basis "
                  "cannot discretize", file=sys.stderr)
        return _EXIT_GEOMETRY
    except CscbifError as exc:
        print(f"cscbif: error: {exc}", file=sys.stderr)
        return _EXIT_FAILURE

    _write_report(report, args.out)
    wrote = ", ".join(["report.json"] + sorted(report.tables))
    print(f"{args.command}: wrote {wrote} to {args.out}")
    return report.exit_code


def console():
    sys.exit(main())


if __name__ == "__main__":
    console()
