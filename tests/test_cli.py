"""Command-line driver: config parsing, report shapes, exit codes, and
byte-level reproducibility of the tabular outputs."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from cscbif import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"
CIRCLE_SPHERE = CONFIG_DIR / "circle_sphere.yaml"
HOPF = CONFIG_DIR / "hopf.yaml"
NONDISCRETE = CONFIG_DIR / "nondiscrete.yaml"


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    code = cli.main([*argv, "--out", str(out)])
    return code, out


def _small_circle_sphere(tmp_path, **overrides):
    """A trimmed copy of the shipped product config for fast runs."""
    with open(CIRCLE_SPHERE) as fh:
        data = yaml.safe_load(fh)
    data["window"] = {"t_min": "1/2", "t_max": "3/2"}
    data["galerkin"] = {"N_b": 8, "N_f": 6}
    data["continuation"].update(
        {"steps": 12, "trials": 6, "reduce_samples": 4}
    )
    data["continuation"].update(overrides)
    path = tmp_path / "family.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


# ---------------------------------------------------------------------------
# config parsing and echo


def test_shipped_configs_round_trip():
    for path in (CIRCLE_SPHERE, HOPF, NONDISCRETE):
        cfg = cli.load_config(str(path))
        echoed = cli.echo_config(cfg)
        again = cli.parse_config(echoed, source=f"echo of {path.name}")
        assert again == cfg


def test_rational_literals_stay_exact():
    cfg = cli.load_config(str(CIRCLE_SPHERE))
    assert cfg.t_min == Fraction(1, 1000)
    assert isinstance(cfg.t_min, Fraction)
    assert cfg.family.fiber.scalar_curvature == 2


def test_float_literals_stay_floats():
    cfg = cli.load_config(str(CIRCLE_SPHERE))
    assert isinstance(cfg.continuation.ds, float)
    assert cfg.continuation.ds == 4.0e-4


@pytest.mark.parametrize("section, key", [
    (None, "galerkinn"),
    ("continuation", "detect_samples"),   # removed; no longer a schema key
], ids=["galerkinn", "continuation.detect_samples"])
def test_unknown_keys_are_rejected(tmp_path, section, key):
    path = _small_circle_sphere(tmp_path)
    data = yaml.safe_load(path.read_text())
    (data if section is None else data[section])[key] = 4
    path.write_text(yaml.safe_dump(data))
    code, _ = _run(tmp_path, "classify", "--config", str(path))
    assert code == 2


def test_bad_window_is_a_config_error(tmp_path):
    path = _small_circle_sphere(tmp_path)
    data = yaml.safe_load(path.read_text())
    data["window"] = {"t_min": 2, "t_max": 1}
    path.write_text(yaml.safe_dump(data))
    code, _ = _run(tmp_path, "classify", "--config", str(path))
    assert code == 2


def test_missing_config_file(tmp_path):
    code, _ = _run(tmp_path, "classify", "--config", str(tmp_path / "none.yaml"))
    assert code == 2


def test_malformed_window_override(tmp_path):
    code, _ = _run(
        tmp_path, "classify", "--config", str(CIRCLE_SPHERE), "--window", "oops"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# classify


def test_classify_circle_sphere(tmp_path):
    code, out = _run(tmp_path, "classify", "--config", str(CIRCLE_SPHERE))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tool"]["name"] == "cscbif"
    assert report["command"] == "classify"
    results = report["results"]
    assert not results["nondiscrete"]
    assert results["degeneracy_source"] == "enumerated"
    assert results["degeneracy_complete"] is True
    assert results["epsilon"] == "inf"
    assert results["stability_equality_on_window"] is True

    lines = (out / "instants.csv").read_text().splitlines()
    assert lines[0] == "t,witnesses,horizontal,certified,fiber_constancy_guaranteed"
    assert len(lines) == 1 + 31
    ts = [Fraction(row.split(",")[0]) for row in lines[1:]]
    assert ts == [Fraction(1, j * j) for j in range(31, 0, -1)]
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[2] == cells[3] == cells[4] == "true"


def test_classify_reports_witness_pairs(tmp_path):
    code, out = _run(
        tmp_path, "classify", "--config", str(CIRCLE_SPHERE), "--window", "1/2..3/2"
    )
    assert code == 0
    lines = (out / "instants.csv").read_text().splitlines()
    assert len(lines) == 2
    t, witnesses = lines[1].split(",")[:2]
    assert t == "1"
    assert witnesses == "1:0"


def test_classify_hopf(tmp_path):
    code, out = _run(tmp_path, "classify", "--config", str(HOPF))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    results = report["results"]
    assert results["epsilon"] == "1/4"
    assert results["regime"]["oneill_positive"] is True
    rows = results["instants"]
    assert len(rows) == 3
    assert all(r["certified"] for r in rows)
    assert all(r["fiber_constancy_guaranteed"] for r in rows)


def test_classify_nondiscrete_verdict(tmp_path):
    code, out = _run(tmp_path, "classify", "--config", str(NONDISCRETE))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    results = report["results"]
    assert results["nondiscrete"] is True
    assert results["degeneracy_set"] == "(0, inf)"
    assert results["nondiscrete_witness"] == {
        "base_eigenvalue": "2",
        "fiber_eigenvalue": "2",
    }
    assert (out / "instants.csv").read_text().splitlines()[1:] == []


def test_report_carries_no_environment_traces(tmp_path):
    code, out = _run(tmp_path, "classify", "--config", str(CIRCLE_SPHERE))
    assert code == 0
    text = (out / "report.json").read_text()
    assert str(tmp_path) not in text
    assert "time" not in json.loads(text)


def test_classify_is_byte_deterministic(tmp_path):
    _, out_a = _run(tmp_path / "a", "classify", "--config", str(CIRCLE_SPHERE))
    _, out_b = _run(tmp_path / "b", "classify", "--config", str(CIRCLE_SPHERE))
    for name in ("report.json", "instants.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------------------
# branch


def test_branch_follows_the_window_bifurcation(tmp_path):
    path = _small_circle_sphere(tmp_path)
    code, out = _run(tmp_path, "branch", "--config", str(path))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    results = report["results"]
    assert results["n_branch_points"] == 1
    entry = results["branch_points"][0]
    assert entry["status"] == "ok"
    assert entry["observed_t_side"] in {"below", "above", "at"}
    assert entry["stop_reason"] in {
        "steps-exhausted",
        "turnaround",
        "positivity-stop",
        "no-convergence",
    }

    lines = (out / "branch_0.csv").read_text().splitlines()
    assert lines[0] == "t,u_minus_one_norm,energy,fiber_fraction,residual_norm"
    assert len(lines) >= 3
    for row in lines[1:]:
        assert float(row.split(",")[4]) < 1e-10


def test_branch_empty_window_is_success(tmp_path):
    path = _small_circle_sphere(tmp_path)
    code, out = _run(tmp_path, "branch", "--config", str(path), "--window", "21/20..6/5")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["n_branch_points"] == 0
    assert not list(out.glob("branch_*.csv"))


def test_branch_rejects_undiscretizable_geometry(tmp_path, capsys):
    code, _ = _run(tmp_path, "branch", "--config", str(HOPF))
    assert code == 4
    err = capsys.readouterr().err
    assert "classify" in err  # points at the subcommand that still applies


def test_branch_needs_numeric_sections(tmp_path):
    path = _small_circle_sphere(tmp_path)
    data = yaml.safe_load(path.read_text())
    del data["continuation"]
    path.write_text(yaml.safe_dump(data))
    code, _ = _run(tmp_path, "branch", "--config", str(path))
    assert code == 2


def test_branch_is_byte_deterministic(tmp_path):
    path = _small_circle_sphere(tmp_path)
    _, out_a = _run(tmp_path / "a", "branch", "--config", str(path))
    _, out_b = _run(tmp_path / "b", "branch", "--config", str(path))
    for name in ("report.json", "branch_0.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------------------
# verify


def test_verify_circle_sphere(tmp_path):
    path = _small_circle_sphere(tmp_path)
    code, out = _run(tmp_path, "verify", "--config", str(path))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["passed"] is True
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[0] == (
        "t,kernel_dim,horizontal,reduction_discrepancy,max_fiber_fraction,status"
    )
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[1] == "2"
    assert cells[2] == "true"
    assert float(cells[3]) < 1e-8
    assert float(cells[4]) < 1e-8
    assert cells[5] == "ok"


def test_verify_seed_override_lands_in_the_report(tmp_path):
    path = _small_circle_sphere(tmp_path)
    code, out = _run(tmp_path, "verify", "--config", str(path), "--seed", "31")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["continuation"]["seed"] == 31
    assert report["results"]["rows"][0]["fiber_constancy"]["seed"] == 31


def test_verify_flags_fiber_kernels(tmp_path):
    data = {
        "base": {"kind": "sphere", "dim": 2, "radius": 1},
        "fiber": {"kind": "sphere", "dim": 1, "radius": 1},
        "a_norm_sq": 0,
        "joint_mode": "all_pairs",
        "window": {"t_min": "1/2", "t_max": "3/2"},
        "galerkin": {"N_b": 8, "N_f": 6},
        "continuation": {
            "ds": 4.0e-4,
            "steps": 10,
            "amplitude": 1.0e-2,
            "seed": 0,
            "direction": -1,
            "trials": 4,
            "reduce_radius": 1.0e-2,
            "reduce_samples": 4,
        },
    }
    path = tmp_path / "interchanged.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out = _run(tmp_path, "verify", "--config", str(path))
    assert code == 5
    lines = (out / "verify.csv").read_text().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[2] == "false"
    assert cells[5] == "hypothesis-violated"


def test_verify_is_byte_deterministic(tmp_path):
    path = _small_circle_sphere(tmp_path)
    _, out_a = _run(tmp_path / "a", "verify", "--config", str(path))
    _, out_b = _run(tmp_path / "b", "verify", "--config", str(path))
    for name in ("report.json", "verify.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------------------
# remaining exit codes


def test_incomplete_spectrum_exit_code(tmp_path):
    with open(NONDISCRETE) as fh:
        data = yaml.safe_load(fh)
    # discrete variant (scalar curvature off by one) over a window that
    # outruns the tabulated spectra
    data["base"]["scalar_curvature"] = 7
    data["window"] = {"t_min": "1/100", "t_max": 3}
    path = tmp_path / "short.yaml"
    path.write_text(yaml.safe_dump(data))
    code, _ = _run(tmp_path, "classify", "--config", str(path))
    assert code == 3


def test_window_override_matches_inline_window(tmp_path):
    _, out_a = _run(
        tmp_path / "a", "classify", "--config", str(CIRCLE_SPHERE), "--window", "1/4..1"
    )
    with open(CIRCLE_SPHERE) as fh:
        data = yaml.safe_load(fh)
    data["window"] = {"t_min": "1/4", "t_max": 1}
    path = tmp_path / "narrow.yaml"
    path.write_text(yaml.safe_dump(data))
    _, out_b = _run(tmp_path / "b", "classify", "--config", str(path))
    assert (out_a / "instants.csv").read_bytes() == (out_b / "instants.csv").read_bytes()
