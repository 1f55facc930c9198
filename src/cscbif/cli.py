"""Config-driven command line: classification, branch following, and
fiber-constancy verification from a single YAML document.

Numeric literals written as integers or fraction strings ("1/4", "0.05")
are carried as exact rationals end to end; YAML floats stay floats.  The
report echoes the effective configuration in a form that parses back to an
equivalent one, and all tabular output is byte-reproducible for a fixed
config and seed: no timestamps, no absolute paths, deterministic solvers.

Exit codes: 0 success, 1 run failure, 2 configuration or an unwritable
--out, 3 incomplete spectrum, 4 unsupported geometry, 5 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from types import SimpleNamespace

import yaml

from . import __version__, variation
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
from .spectra import explicit_manifold, sphere_manifold
from .variation import ALL_PAIRS, ExplicitJoint, JointPair, SubmersionFamily

_EXIT_FAILURE = 1
_EXIT_CONFIG = 2
_EXIT_SPECTRUM = 3
_EXIT_GEOMETRY = 4
_EXIT_VERIFY = 5


# ---------------------------------------------------------------------------
# config schema
#
# Each mapping node of a config is one table of rows (key, reader, default).
# A reader takes (value, path) and returns the validated value or raises a
# ConfigurationError at `path`.  A default is REQUIRED, OPTIONAL (an absent
# key stays absent), a value, or a function of the keys read before it and
# the node's path; a default goes through the reader like a given value.
# Reading a node yields its validated mapping in table order: the document
# that report.json echoes and that the family is built from.

REQUIRED = object()
OPTIONAL = object()


def _fail(path: str, message: str):
    raise ConfigurationError(message, path=path)


def _mapping(node, path):
    if not isinstance(node, dict):
        _fail(path, f"expected a mapping, got {type(node).__name__}")
    return node


def _read(rows, node, path, here=None):
    """The validated mapping `node` of table `rows`.  Its keys are reported
    at `path.key` (plain `key` when `path` is empty), errors of the node
    itself at `here`, which defaults to `path`."""
    here = here or path
    keys = [key for key, _, _ in rows]
    extra = set(_mapping(node, here)) - set(keys)
    if extra:
        _fail(here, f"unknown key(s) {sorted(extra)}; expected {sorted(keys)}")
    got = {}
    for key, reader, default in rows:
        if key in node:
            value = node[key]
        elif default is REQUIRED:
            _fail(here, f"missing required key {key!r}")
        elif default is OPTIONAL:
            continue
        else:
            value = default(got, path) if callable(default) else default
        got[key] = reader(value, f"{path}.{key}" if path else key)
    return got


def _real(value, path):
    """Exact rational from an int, "p/q" or decimal string; a YAML float
    stays a float."""
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


def _exact(value, path):
    """Like `_real`, but a YAML float is refused."""
    number = _real(value, path)
    if isinstance(number, float):
        _fail(path, f'expected an exact number (int or "p/q"), got {value!r}')
    return number


def _decimal(value, path):
    """Like `_real`, but a YAML float is read by its shortest decimal
    literal (12.5 -> 25/2)."""
    return as_rational(_real(value, path))


def _float(value, path):
    number = _real(value, path)
    try:
        return float(number)
    except OverflowError:
        _fail(path, f"{value!r} is beyond the double range")


def _checked(holds, need):
    """Wraps a number reader: a value that fails `holds` is refused as
    not `need` ("must be positive, got 0")."""
    def wrap(reader):
        def read(value, path):
            number = reader(value, path)
            if not holds(number):
                _fail(path, f"must be {need}, got {number}")
            return number
        return read
    return wrap


_positive = _checked(lambda x: x > 0, "positive")
_nonzero = _checked(lambda x: x != 0, "nonzero")


def _int(minimum):
    def read(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, f"expected an integer, got {value!r}")
        if value < minimum:
            _fail(path, f"expected >= {minimum}, got {value}")
        return value
    return read


def _one_of(*options):
    def read(value, path):
        if not any(type(value) is type(o) and value == o for o in options):
            _fail(path, f"expected {' or '.join(json.dumps(o) for o in options)}, "
                        f"got {value!r}")
        return value
    return read


def _text(value, path):
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    return value


def _rows(what, *columns):
    """Reader of a nonempty list of rows `what` ("[a, b]"), one reader per
    column."""
    def read(value, path):
        if not isinstance(value, list) or not value:
            _fail(path, f"expected a nonempty list of {what} rows")
        out = []
        for k, item in enumerate(value):
            if not isinstance(item, (list, tuple)) or len(item) != len(columns):
                _fail(f"{path}[{k}]", f"expected a {what} row, got {item!r}")
            out.append([column(x, f"{path}[{k}][{i}]")
                        for i, (column, x) in enumerate(zip(columns, item))])
        return out
    return read


SPECTRUM = (
    ("spectrum", _rows("[eigenvalue, multiplicity]", _exact, _int(1)), REQUIRED),
    ("complete_below", _decimal, REQUIRED),
)

SPHERE = (
    ("kind", _text, REQUIRED),
    ("dim", _int(1), REQUIRED),
    ("radius", _positive(_exact), REQUIRED),
    ("name", _text, lambda got, path: sphere_manifold(got["dim"], got["radius"]).name),
)

EXPLICIT = (
    ("kind", _text, REQUIRED),
    ("name", _text, lambda got, path: path),
    ("dim", _int(1), REQUIRED),
    ("scalar_curvature", _exact, REQUIRED),
    *SPECTRUM,
)

MANIFOLDS = {"sphere": SPHERE, "explicit": EXPLICIT}


def _manifold(node, path):
    kind = _one_of(*MANIFOLDS)(_mapping(node, path).get("kind"), f"{path}.kind")
    return _read(MANIFOLDS[kind], node, path)


WINDOW = (
    ("t_min", _real, REQUIRED),
    ("t_max", _real, REQUIRED),
)


def _window(node, path):
    window = _read(WINDOW, node, path)
    if not (window["t_min"] > 0 and window["t_min"] < window["t_max"]):
        _fail(path, f"need 0 < t_min < t_max, got ({window['t_min']}, {window['t_max']})")
    return window


GALERKIN = (
    ("N_b", _int(2), 16),
    ("N_f", _int(2), 8),
)

CONTINUATION = (
    ("ds", _positive(_float), 4e-4),
    ("steps", _int(1), 40),
    ("amplitude", _nonzero(_float), 1e-2),
    ("seed", _int(0), 0),
    ("direction", _one_of(1, -1), -1),
    ("trials", _int(1), 20),
    ("reduce_radius", _positive(_float), 1e-2),
    ("reduce_samples", _int(1), 8),
)

CONFIG = (
    ("base", _manifold, REQUIRED),
    ("fiber", _manifold, REQUIRED),
    ("a_norm_sq", _exact, 0),
    ("joint_mode", _one_of("all_pairs", "explicit"), "all_pairs"),
    ("joint_pairs", _rows("[b, lam, multiplicity]", _exact, _exact, _int(1)), OPTIONAL),
    ("window", _window, REQUIRED),
    ("galerkin", partial(_read, GALERKIN), OPTIONAL),
    ("continuation", partial(_read, CONTINUATION), OPTIONAL),
)


@dataclass(frozen=True)
class FamilyConfig:
    """A validated config document and the family it describes.  A section
    is present when it is in `doc`; an absent one reads as its defaults."""

    doc: dict
    family: SubmersionFamily

    @property
    def t_min(self):
        return self.doc["window"]["t_min"]

    @property
    def t_max(self):
        return self.doc["window"]["t_max"]

    @property
    def galerkin(self) -> SimpleNamespace:
        g = self._section("galerkin", GALERKIN)
        return SimpleNamespace(n_b=g["N_b"], n_f=g["N_f"])

    @property
    def continuation(self) -> SimpleNamespace:
        return SimpleNamespace(**self._section("continuation", CONTINUATION))

    def _section(self, key, rows):
        return self.doc[key] if key in self.doc else _read(rows, {}, key)


def _built(path, make, *args):
    """`make(*args)`, with an error of the package reported at `path`."""
    try:
        return make(*args)
    except CscbifError as exc:
        _fail(path, str(exc))


def _descriptor(node, path):
    if node["kind"] == "sphere":
        return _built(path, sphere_manifold, node["dim"], node["radius"], node["name"])
    return _built(path, explicit_manifold, node["name"], node["dim"],
                  node["scalar_curvature"], node["spectrum"], node["complete_below"])


def parse_config(data, source: str | None = None) -> FamilyConfig:
    source = source or "config"
    doc = _read(CONFIG, data, "", here=source)
    explicit = doc["joint_mode"] == "explicit"
    if "joint_pairs" in doc and not explicit:
        _fail("joint_pairs", "joint_pairs requires joint_mode: explicit")
    if explicit and "joint_pairs" not in doc:
        _fail("joint_pairs", "joint_mode: explicit needs a joint_pairs list")

    base = _descriptor(doc["base"], "base")
    fiber = _descriptor(doc["fiber"], "fiber")
    joint = ALL_PAIRS
    if explicit:
        joint = ExplicitJoint(tuple(_built(f"joint_pairs[{k}]", JointPair, *pair)
                                    for k, pair in enumerate(doc["joint_pairs"])))
    family = _built(source, SubmersionFamily, fiber, base, doc["a_norm_sq"], joint)
    return FamilyConfig(doc, family)


# libyaml's scanner with the SafeConstructor and resolver of yaml.safe_load,
# so it builds the same documents; pure Python only where PyYAML lacks libyaml
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path: str) -> FamilyConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}")
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed YAML in {path}: {exc}")
    return parse_config(data, source=path)


def _plain(node):
    """`node` with every Fraction written as an int or a "p/q" string."""
    if isinstance(node, dict):
        return {key: _plain(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_plain(value) for value in node]
    if isinstance(node, Fraction):
        return int(node) if node.denominator == 1 else str(node)
    return node


def echo_config(cfg: FamilyConfig) -> dict:
    """The config as report.json echoes it; it parses back to an equal
    config."""
    return _plain(cfg.doc)


# ---------------------------------------------------------------------------
# report assembly

@dataclass
class CliReport:
    payload: dict
    tables: dict
    exit_code: int


def _payload(command: str, cfg: FamilyConfig, provenance: list, results: dict) -> dict:
    window = {"t_min": fmt_number(cfg.t_min), "t_max": fmt_number(cfg.t_max)}
    return {
        "tool": {"name": "cscbif", "version": __version__},
        "command": command,
        "config": echo_config(cfg),
        "provenance": provenance,
        "results": {"window": window, **results},
    }


INSTANTS_CSV = ("t", "witnesses", "horizontal", "certified", "fiber_constancy_guaranteed")
BRANCH_CSV = ("t", "u_minus_one_norm", "energy", "fiber_fraction", "residual_norm")
VERIFY_CSV = ("t", "kernel_dim", "horizontal", "reduction_discrepancy",
              "max_fiber_fraction", "status")


def _csv(header, rows) -> str:
    """One line per row: the row's value under each column of `header`, a
    string as it is and any other value as its JSON literal."""
    def cell(value):
        if isinstance(value, str):
            return value
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return int.__repr__(value)
        return json.dumps(value)
    lines = [",".join(header)]
    lines += [",".join(cell(row[column]) for column in header) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_classify(cfg: FamilyConfig) -> CliReport:
    report = variation.classify_window(cfg.family, cfg.t_min, cfg.t_max)
    provenance = [
        {"quantity": "instants", "operation": "variation.classify_window",
         "inputs": {"t_min": fmt_number(cfg.t_min), "t_max": fmt_number(cfg.t_max)}},
        {"quantity": "epsilon", "operation": "variation.stability_epsilon", "inputs": {}},
        {"quantity": "nondiscrete", "operation": "variation.check_nondiscreteness",
         "inputs": {}},
        {"quantity": "certificates", "operation": "variation.classify_window",
         "inputs": {"t_star": "each horizontal instant"}},
    ]
    rows = []
    for row in report.rows:
        inst = row.instant
        cert = row.certificate
        rows.append({
            "t": fmt_number(inst.t),
            "witnesses": [[fmt_number(b), fmt_number(lam)] for b, lam in inst.witnesses],
            "horizontal": inst.horizontal,
            "certified": cert is not None,
            "certificate": None if cert is None else {
                "index_below": cert.index_below,
                "index_above": cert.index_above,
            },
            "certify_error": row.certify_error,
            "fiber_constancy_guaranteed": row.fiber_constancy_guaranteed,
        })

    payload = _payload("classify", cfg, provenance, {
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
        "instants": rows,
    })
    tables = {"instants.csv": _csv(INSTANTS_CSV, [
        {**row, "witnesses": ";".join(":".join(pair) for pair in row["witnesses"])}
        for row in rows
    ])}
    return CliReport(payload, tables, 0)


def _branch_points(cfg: FamilyConfig, command: str):
    """What branch and verify share: the Galerkin model, the continuation
    settings, the branch points in the window and their provenance row.
    The numerical layer, and numpy with it, is imported by the commands
    that use it, so `classify` starts without it."""
    from . import continuation, galerkin

    # geometry first: an undiscretizable family is exit 4 regardless of
    # which config sections are present
    model = galerkin.build_model(cfg.family, cfg.galerkin.n_b, cfg.galerkin.n_f)
    missing = [key for key in ("galerkin", "continuation") if key not in cfg.doc]
    if missing:
        raise ConfigurationError(f"{command} needs the {' and '.join(missing)} section(s)")
    points = continuation.detect_branch_points(model, cfg.t_min, cfg.t_max)
    provenance = {
        "quantity": "branch_points", "operation": "continuation.detect_branch_points",
        "inputs": {"t_min": fmt_number(cfg.t_min), "t_max": fmt_number(cfg.t_max)},
    }
    return model, cfg.continuation, points, provenance


def cmd_branch(cfg: FamilyConfig) -> CliReport:
    from . import continuation

    model, cont, points, detected = _branch_points(cfg, "branch")
    provenance = [
        detected,
        {"quantity": "branches",
         "operation": "continuation.follow_branch",
         "inputs": {"amplitude": fmt_number(cont.amplitude),
                    "direction": cont.direction, "steps": cont.steps,
                    "ds": fmt_number(cont.ds)}},
    ]

    tables = {}
    rows_json = []
    successes = 0
    branches = continuation.follow_branch(model, points, cont.amplitude, cont.direction,
                                          cont.steps, cont.ds)
    for k, (bp, branch) in enumerate(zip(points, branches)):
        entry = {
            "index": k,
            "t": fmt_number(float(bp.t)),
            "kernel_dim": bp.kernel_dim,
            "kernel_modes": [list(m) for m in bp.kernel_modes],
            "horizontal": bp.horizontal,
            "subspace": bp.subspace,
            "predicted_instant": fmt_number(bp.t),
        }
        if isinstance(branch, CscbifError):
            entry["status"] = f"failed: {branch}"
            rows_json.append(entry)
            continue
        successes += 1
        s = branch.samples
        columns = [a.tolist() for a in (s.t, s.u_distance, s.energy, s.fiber_fraction,
                                        s.residual_norm)]
        side = columns[0][0] - bp.t
        entry["status"] = "ok"
        entry["observed_t_side"] = (
            "below" if side < -1e-12 else ("above" if side > 1e-12 else "at")
        )
        entry["samples"] = len(s)
        entry["stop_reason"] = branch.stop_reason
        if branch.fiber_margin is not None:
            entry["min_fiber_margin"] = fmt_number(branch.fiber_margin)
        name = f"branch_{k}.csv"
        entry["file"] = name
        tables[name] = _csv(BRANCH_CSV, [dict(zip(BRANCH_CSV, map(fmt_number, row)))
                                         for row in zip(*columns)])
        rows_json.append(entry)

    payload = _payload("branch", cfg, provenance, {
        "n_branch_points": len(points),
        "branch_points": rows_json,
    })
    code = 0 if (not points or successes) else _EXIT_FAILURE
    return CliReport(payload, tables, code)


def cmd_verify(cfg: FamilyConfig) -> CliReport:
    from . import continuation

    model, cont, points, detected = _branch_points(cfg, "verify")
    provenance = [
        detected,
        {"quantity": "reduction", "operation": "continuation.lyapunov_schmidt_reduce",
         "inputs": {"sample_radius": fmt_number(cont.reduce_radius),
                    "n_samples": cont.reduce_samples, "seed": cont.seed}},
        {"quantity": "fiber_constancy", "operation": "continuation.verify_fiber_constancy",
         "inputs": {"trials": cont.trials, "seed": cont.seed,
                    "amplitude": fmt_number(cont.amplitude)}},
    ]

    rows = []
    csv_rows = []
    for bp in points:
        try:
            red = continuation.lyapunov_schmidt_reduce(
                model, bp, cont.reduce_radius, cont.reduce_samples, seed=cont.seed,
            )
        except (HypothesisViolatedError, ReductionFailedError, PreconditionError) as exc:
            reduction = _failure(exc)
        else:
            reduction = {
                "status": "ok" if red.passed else "discrepancy-exceeded",
                "discrepancy": fmt_number(red.discrepancy),
                "fiber_margin": fmt_number(red.fiber_margin),
            }
        try:
            fc = continuation.verify_fiber_constancy(
                model, bp, cont.trials, seed=cont.seed, amplitude=cont.amplitude,
            )
        except PreconditionError as exc:
            constancy = _failure(exc)
        else:
            constancy = {
                "status": ("ok" if fc.passed else "no-nontrivial-trial" if not fc.nontrivial
                           else "fraction-exceeded"),
                "max_fraction": fmt_number(fc.max_fraction),
                "trials": len(fc.trials),
                "nontrivial_trials": fc.nontrivial,
                "seed": fc.seed,
            }
        failing = [block["status"] for block in (reduction, constancy)
                   if block["status"] != "ok"]
        row = {
            "t": fmt_number(float(bp.t)),
            "kernel_dim": bp.kernel_dim,
            "horizontal": bp.horizontal,
            "reduction": reduction,
            "fiber_constancy": constancy,
            "status": "failed" if failing else "ok",
        }
        rows.append(row)
        csv_rows.append({
            **row,
            "reduction_discrepancy": reduction.get("discrepancy", ""),
            "max_fiber_fraction": constancy.get("max_fraction", ""),
            "status": failing[0] if failing else "ok",
        })

    passed = all(row["status"] == "ok" for row in rows)
    payload = _payload("verify", cfg, provenance, {
        "n_branch_points": len(points), "rows": rows, "passed": passed,
    })
    return CliReport(payload, {"verify.csv": _csv(VERIFY_CSV, csv_rows)},
                     0 if passed else _EXIT_VERIFY)


def _failure(exc) -> dict:
    """The report block of a check that raised `exc`."""
    status = ("hypothesis-violated" if isinstance(exc, HypothesisViolatedError)
              else "reduction-failed" if isinstance(exc, ReductionFailedError)
              else "precondition-violated")
    return {"status": status, "detail": str(exc)}


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


def _override(cfg: FamilyConfig, window, seed, source: str) -> FamilyConfig:
    """`cfg` with the --window and --seed options set in its echoed
    document, read again with the same tables.  A config without a
    continuation section has no seed to set."""
    doc = echo_config(cfg)
    if window is not None:
        bounds = window.split("..")
        if len(bounds) != 2:
            raise ConfigurationError(f"--window expects the form a..b, got {window!r}")
        doc["window"] = dict(zip(("t_min", "t_max"), bounds))
    if seed is not None:
        if seed < 0:
            raise ConfigurationError("--seed must be nonnegative")
        if "continuation" in doc:
            doc["continuation"]["seed"] = seed
    return parse_config(doc, source=source)


@cache
def _build_parser():
    """The command-line parser, built once per process: `parse_args`
    leaves it unchanged, so every `main` call can share it."""
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
        if args.window is not None or args.seed is not None:
            cfg = _override(cfg, args.window, args.seed, args.config)
        report = _COMMANDS[args.command](cfg)
    except ConfigurationError as exc:
        print(f"cscbif: configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except IncompleteSpectrumError as exc:
        print(f"cscbif: incomplete spectrum: {exc}", file=sys.stderr)
        return _EXIT_SPECTRUM
    except UnsupportedGeometryError as exc:
        print(f"cscbif: unsupported geometry: {exc}", file=sys.stderr)
        print("cscbif: hint: `classify` covers families the Galerkin basis "
              "cannot discretize", file=sys.stderr)
        return _EXIT_GEOMETRY
    except CscbifError as exc:
        print(f"cscbif: error: {exc}", file=sys.stderr)
        return _EXIT_FAILURE

    try:
        _write_report(report, args.out)
    except OSError as exc:
        print(f"cscbif: error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return _EXIT_CONFIG
    wrote = ", ".join(["report.json"] + sorted(report.tables))
    print(f"{args.command}: wrote {wrote} to {args.out}")
    return report.exit_code


def console():
    sys.exit(main())


if __name__ == "__main__":
    console()
