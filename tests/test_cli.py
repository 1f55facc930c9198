"""Command-line driver: config parsing, report shapes, exit codes, and
byte-level reproducibility of the tabular outputs."""

import datetime
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

from cscbif import CscbifError, cli, galerkin
from cscbif.errors import NoConvergenceError

from conftest import PULLBACK_BASE, PULLBACK_ROWS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"
CIRCLE_SPHERE = CONFIG_DIR / "circle_sphere.yaml"
HOPF = CONFIG_DIR / "hopf.yaml"
NONDISCRETE = CONFIG_DIR / "nondiscrete.yaml"

LOAD_CONFIG = cli.load_config
MODULE_LOADER = cli._YAML_LOADER


def _load_with(loader, path):
    """`cli.load_config(path)` read through the YAML `loader`: the parsed
    document, or the type of the package error it raises (libyaml and
    PyYAML word their syntax errors differently)."""
    saved = cli._YAML_LOADER
    cli._YAML_LOADER = loader
    try:
        return LOAD_CONFIG(path).doc
    except CscbifError as exc:
        return type(exc)
    finally:
        cli._YAML_LOADER = saved


@pytest.fixture(autouse=True)
def configs_parse_alike_under_both_loaders(monkeypatch):
    """Every config a test here loads, shipped or written by the test,
    parses to an equal document under the module's loader and under the
    pure-Python yaml.SafeLoader."""
    def checked(path):
        assert _load_with(MODULE_LOADER, path) == _load_with(yaml.SafeLoader, path)
        return LOAD_CONFIG(path)

    monkeypatch.setattr(cli, "load_config", checked)


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


# every optional key at once: an explicit manifold without a name,
# explicit joint pairs, a YAML float completeness bound and a YAML float
# window bound
SYNTHETIC = {
    "base": {
        "kind": "explicit", "dim": 2, "scalar_curvature": 2,
        "spectrum": [[0, 1], [2, 3], ["13/2", 5]], "complete_below": 12.5,
    },
    "fiber": {"kind": "sphere", "dim": 1, "radius": "1/2"},
    "a_norm_sq": "1/2",
    "joint_mode": "explicit",
    "joint_pairs": [[0, 0, 1], [2, 0, 3], [0, 4, 2]],
    "window": {"t_min": 0.05, "t_max": "3/2"},
}

SYNTHETIC_ECHO = {
    "base": {
        "kind": "explicit", "name": "base", "dim": 2, "scalar_curvature": 2,
        "spectrum": [[0, 1], [2, 3], ["13/2", 5]], "complete_below": "25/2",
    },
    "fiber": {"kind": "sphere", "dim": 1, "radius": "1/2", "name": "S1(r=1/2)"},
    "a_norm_sq": "1/2",
    "joint_mode": "explicit",
    "joint_pairs": [[0, 0, 1], [2, 0, 3], [0, 4, 2]],
    "window": {"t_min": 0.05, "t_max": "3/2"},
}


def test_shipped_configs_round_trip(tmp_path):
    synthetic = tmp_path / "synthetic.yaml"
    synthetic.write_text(yaml.safe_dump(SYNTHETIC, sort_keys=False))
    for path in (CIRCLE_SPHERE, HOPF, NONDISCRETE, synthetic):
        cfg = cli.load_config(str(path))
        echoed = cli.echo_config(cfg)
        again = cli.parse_config(echoed, source=f"echo of {path.name}")
        assert again == cfg
        assert cli.echo_config(again) == echoed
    # key order included: the echo is what report.json prints
    assert json.dumps(echoed) == json.dumps(SYNTHETIC_ECHO)


@pytest.mark.parametrize("loader", [MODULE_LOADER, yaml.SafeLoader])
def test_malformed_yaml_is_a_config_error(tmp_path, capsys, monkeypatch, loader):
    monkeypatch.setattr(cli, "_YAML_LOADER", loader)
    path = tmp_path / "broken.yaml"
    path.write_text("base: {kind: sphere, dim: [1\n")
    code, _ = _run(tmp_path, "classify", "--config", str(path))
    assert code == 2
    assert f"configuration error: malformed YAML in {path}" in capsys.readouterr().err


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_configs_load_without_the_pure_python_reader(monkeypatch):
    readers = []
    init = yaml.reader.Reader.__init__

    def counting(self, stream):
        readers.append(stream)
        init(self, stream)

    monkeypatch.setattr(yaml.reader.Reader, "__init__", counting)
    for path in (CIRCLE_SPHERE, HOPF, NONDISCRETE):
        LOAD_CONFIG(str(path))
    assert readers == []
    yaml.safe_load("a: 1")  # the counter does see the pure-Python path
    assert len(readers) == 1


def _readme_schema_block():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split("### Config schema", 1)[1].split("```yaml", 1)[1].split("```", 1)[0]


def test_readme_schema_lists_every_key():
    block = _readme_schema_block()
    tables = (cli.CONFIG, cli.SPHERE, cli.EXPLICIT, cli.SPECTRUM, cli.WINDOW,
              cli.GALERKIN, cli.CONTINUATION)
    keys = {key for rows in tables for key, _, _ in rows}
    assert {key for key in keys if not re.search(rf"(?<!\w){key}:", block)} == set()


def test_readme_schema_block_is_the_schema_tables():
    # the other way round: every key the README block sets is a key of its
    # table, and its galerkin and continuation values are the defaults
    doc = yaml.safe_load(_readme_schema_block())

    def keys(rows):
        return {key for key, _, _ in rows}

    assert set(doc) <= keys(cli.CONFIG)
    for name in ("base", "fiber"):
        assert set(doc[name]) <= keys(cli.MANIFOLDS[doc[name]["kind"]])
    assert set(doc["window"]) <= keys(cli.WINDOW)
    for name, rows in (("galerkin", cli.GALERKIN), ("continuation", cli.CONTINUATION)):
        assert doc[name] == {key: default for key, _, default in rows}


def test_readme_lists_every_csv_header():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.findall(r"`(\w+(?:,\w+)+)`", readme)
    headers = (cli.INSTANTS_CSV, cli.BRANCH_CSV, cli.VERIFY_CSV)
    assert listed == [",".join(header) for header in headers]


def test_rational_literals_stay_exact():
    cfg = cli.load_config(str(CIRCLE_SPHERE))
    assert cfg.t_min == Fraction(1, 1000)
    assert isinstance(cfg.t_min, Fraction)
    assert cfg.family.fiber.scalar_curvature == 2


def test_float_literals_stay_floats():
    cfg = cli.load_config(str(CIRCLE_SPHERE))
    assert isinstance(cfg.continuation.ds, float)
    assert cfg.continuation.ds == 4.0e-4


def test_negative_amplitudes_stay_valid(tmp_path):
    # only 0 is refused (MALFORMED["amplitude-zero"]): a negative amplitude
    # switches onto the other side of the branch
    cfg = cli.load_config(str(_small_circle_sphere(tmp_path, amplitude=-1.0e-2)))
    assert cfg.continuation.amplitude == -1.0e-2


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


def _with(source, edit):
    """The shipped config at `source` after `edit(data)` (which may return a
    replacement document)."""
    data = yaml.safe_load(source.read_text())
    return data if (replaced := edit(data)) is None else replaced


def _put(node, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        node = node[key]
    node[last] = value


def _drop(node, key):
    del node[key]


# (shipped config, edit, error path; None = the config file itself)
MALFORMED = {
    "document-is-a-list": (CIRCLE_SPHERE, lambda d: [d], None),
    "window-missing": (CIRCLE_SPHERE, lambda d: _drop(d, "window"), None),
    "base-scalar": (CIRCLE_SPHERE, lambda d: _put(d, "base", "circle"), "base"),
    "fiber-kind": (CIRCLE_SPHERE, lambda d: _put(d, "fiber.kind", "torus"), "fiber.kind"),
    "radius-negative": (CIRCLE_SPHERE, lambda d: _put(d, "base.radius", -1), "base.radius"),
    "radius-float": (CIRCLE_SPHERE, lambda d: _put(d, "base.radius", 0.5), "base.radius"),
    "eigenvalue-float": (
        NONDISCRETE, lambda d: _put(d, "base.spectrum", [[0, 1], [2.5, 3]]),
        "base.spectrum[1][0]",
    ),
    "multiplicity-zero": (
        NONDISCRETE, lambda d: _put(d, "base.spectrum", [[0, 1], [2, 0]]),
        "base.spectrum[1][1]",
    ),
    "pairs-under-all-pairs": (
        CIRCLE_SPHERE, lambda d: _put(d, "joint_pairs", [[0, 0, 1]]), "joint_pairs",
    ),
    "explicit-without-pairs": (
        HOPF, lambda d: _drop(d, "joint_pairs"), "joint_pairs",
    ),
    "t_min-boolean": (CIRCLE_SPHERE, lambda d: _put(d, "window.t_min", True), "window.t_min"),
    "N_b-too-small": (CIRCLE_SPHERE, lambda d: _put(d, "galerkin.N_b", 1), "galerkin.N_b"),
    "direction-zero": (
        CIRCLE_SPHERE, lambda d: _put(d, "continuation.direction", 0),
        "continuation.direction",
    ),
    "ds-negative": (CIRCLE_SPHERE, lambda d: _put(d, "continuation.ds", -1), "continuation.ds"),
    "amplitude-zero": (
        CIRCLE_SPHERE, lambda d: _put(d, "continuation.amplitude", 0),
        "continuation.amplitude",
    ),
    # an exact number that no double holds, where the schema wants a float
    "ds-beyond-double": (
        CIRCLE_SPHERE, lambda d: _put(d, "continuation.ds", "1e400"), "continuation.ds",
    ),
    # keys the schema no longer has, each in a config it used to accept
    "removed-joint_total_at_one": (
        HOPF, lambda d: d.update(joint_pairs=[[0, 0, 1]], joint_total_at_one={
            "spectrum": [[0, 1]], "complete_below": 1}),
        None,
    ),
    "removed-horizontal_spectrum": (
        HOPF, lambda d: d.update(horizontal_spectrum={
            "spectrum": [[0, 1], [16, 5]], "complete_below": 16}),
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_config_errors_name_their_path(tmp_path, capsys, case):
    source, edit, where = MALFORMED[case]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_with(source, edit)))
    code, out = _run(tmp_path, "classify", "--config", str(path))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"cscbif: configuration error: {where or path}:"), err


@pytest.mark.parametrize("edit, where", [
    # a YAML date as a name reached the report and broke its JSON encoding
    (lambda d: _put(d, "base.name", datetime.date(2020, 1, 1)), "base.name"),
], ids=["name-not-a-string"])
def test_keys_the_family_cannot_use_are_refused(tmp_path, capsys, edit, where):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_with(CIRCLE_SPHERE, edit)))
    code, _ = _run(tmp_path, "classify", "--config", str(path))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"cscbif: configuration error: {where}:")


@pytest.mark.parametrize("override", [
    ("--window", "oops"), ("--window", "2..1"), ("--seed", "-1"),
], ids=["window-oops", "window-reversed", "seed-negative"])
def test_malformed_window_override(tmp_path, override):
    code, out = _run(tmp_path, "classify", "--config", str(CIRCLE_SPHERE), *override)
    assert code == 2
    assert not out.exists()


def test_a_window_beyond_the_double_range_stays_exact(tmp_path):
    # the window is exact end to end: a bound no double holds is followed
    # like any other, and every provenance row writes it as given
    path = _small_circle_sphere(tmp_path)
    huge = "1" + "0" * 400
    for command in ("branch", "verify"):
        code, out = _run(tmp_path / command, command, "--config", str(path),
                         "--window", "1/2..1e400")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["window"] == {"t_min": "1/2", "t_max": huge}
        (detected,) = [p for p in report["provenance"] if p["quantity"] == "branch_points"]
        assert detected["inputs"] == {"t_min": "1/2", "t_max": huge}


@pytest.mark.parametrize("where", ["file", "file/sub"])
def test_an_unwritable_out_is_an_error_not_a_traceback(tmp_path, capsys, where):
    (tmp_path / "file").write_text("taken\n")
    out = tmp_path / where
    code = cli.main(["classify", "--config", str(HOPF), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"cscbif: error: cannot write {out}: ")
    assert (tmp_path / "file").read_text() == "taken\n"


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


def test_classify_provenance_names_the_operations_that_ran(tmp_path):
    # classify_window certifies every horizontal instant itself
    code, out = _run(tmp_path, "classify", "--config", str(CIRCLE_SPHERE))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    operations = {p["quantity"]: p["operation"] for p in report["provenance"]}
    assert operations == {
        "instants": "variation.classify_window",
        "epsilon": "variation.stability_epsilon",
        "nondiscrete": "variation.check_nondiscreteness",
        "certificates": "variation.classify_window",
    }


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


def test_classify_fiber_table_without_a_positive_row(tmp_path):
    # the table lists only the constants but is complete below 100, so
    # lambda_1 > 100: the list is complete, and eps (which needs the value
    # of lambda_1) is null
    path = tmp_path / "family.yaml"
    path.write_text(yaml.safe_dump({
        "base": {"kind": "sphere", "dim": 2, "radius": 1},
        "fiber": {"kind": "explicit", "dim": 2, "scalar_curvature": 2,
                  "spectrum": [[0, 1]], "complete_below": 100},
        "a_norm_sq": 0,
        "joint_mode": "explicit",
        "joint_pairs": [[0, 0, 1]],
        "window": {"t_min": "1/4", "t_max": 2},
    }))
    code, out = _run(tmp_path, "classify", "--config", str(path))
    assert code == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["degeneracy_complete"] is True
    assert results["epsilon"] is None
    assert (out / "instants.csv").read_text().splitlines()[1:] == [
        "1/2,2:0,true,true,false"
    ]


def test_classify_hopf_wide_window_lists_every_pullback(tmp_path):
    # the shipped table stops at b = 280, but the pullbacks come from the
    # base spectrum up to b_max = 1008; past eps = 1/4 the table's vertical
    # pairs may be incomplete, and the report says so
    code, out = _run(tmp_path, "classify", "--config", str(HOPF), "--window", "1/1000..3")
    assert code == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["degeneracy_source"] == "enumerated"
    assert results["degeneracy_complete"] is False
    rows = results["instants"]
    assert len(rows) == 15
    assert all(r["horizontal"] and r["certified"] for r in rows[:14])
    assert [w[0] for r in rows[:14] for w in r["witnesses"]] == [
        str(4 * l * (l + 3)) for l in range(14, 0, -1)
    ]
    assert rows[14]["t"] == "1"
    assert rows[14]["witnesses"] == [["4", "3"]]
    assert not rows[14]["horizontal"]


def test_all_pairs_with_an_integrability_tensor_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "curved.yaml"
    path.write_text(yaml.safe_dump(_with(CIRCLE_SPHERE, lambda d: _put(d, "a_norm_sq", 1))))
    code, out = _run(tmp_path, "classify", "--config", str(path))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"cscbif: configuration error: {path}:"), err
    assert "a_norm_sq = 0" in err


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


def test_classify_finds_a_vanishing_pullback_the_table_omits(tmp_path):
    data = {
        "base": {"kind": "explicit", **PULLBACK_BASE},
        "fiber": {"kind": "sphere", "dim": 1, "radius": 1},
        "joint_mode": "explicit",
        "joint_pairs": PULLBACK_ROWS,
        "window": {"t_min": "1/2", "t_max": 2},
    }
    path = tmp_path / "pullback.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out = _run(tmp_path, "classify", "--config", str(path))
    assert code == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["degeneracy_set"] == "(0, inf)"
    assert results["nondiscrete_witness"] == {
        "base_eigenvalue": "2",
        "fiber_eigenvalue": "0",
    }


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
    assert entry["subspace"] == "fiber-constant"
    assert float(entry["min_fiber_margin"]) > 0
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
        assert row.split(",")[3] == "0"


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


def test_branch_builds_no_dense_jacobian(tmp_path, monkeypatch):
    # the corrector, the tangent and the margins read the Jacobian through
    # the grid and its degree-0 block; the dense matrix is a test oracle
    def no_dense(*args, **kwargs):
        raise AssertionError("a dense Jacobian was built")

    monkeypatch.setattr(galerkin, "residual_jacobian", no_dense)
    code, out = _run(tmp_path, "branch", "--config", str(_small_circle_sphere(tmp_path)))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [e["status"] for e in report["results"]["branch_points"]] == ["ok"]


def test_branch_rows_that_all_fail_exit_1_with_the_report_only(tmp_path):
    # amplitude 5 at 6x3 throws every switch off the positive cone: each of
    # the five rows names its failure, no CSV is written, and the run fails
    with open(CIRCLE_SPHERE) as fh:
        data = yaml.safe_load(fh)
    data["galerkin"] = {"N_b": 6, "N_f": 3}
    data["continuation"].update({"steps": 3, "amplitude": 5})
    path = tmp_path / "family.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out = _run(tmp_path, "branch", "--config", str(path))
    assert code == 1
    assert os.listdir(out) == ["report.json"]
    rows = json.loads((out / "report.json").read_text())["results"]["branch_points"]
    assert len(rows) == 5
    for row in rows:
        assert row["status"].startswith(
            f"failed: no nontrivial branch found at t = {row['predicted_instant']} ")
        assert "file" not in row and "samples" not in row


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
    assert float(report["results"]["rows"][0]["reduction"]["fiber_margin"]) > 0
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
    seeds = {step["quantity"]: step["inputs"].get("seed") for step in report["provenance"]}
    assert seeds["reduction"] == seeds["fiber_constancy"] == 31


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


def test_a_reduction_sample_off_the_positive_cone_fails_its_row_only(tmp_path, monkeypatch):
    # at reduce_radius 1.5 the complement solve leaves u > 0: the row's
    # reduction reads reduction-failed and names the positivity loss, its
    # trials still run, and the run writes both files and exits 5.  The
    # line search's trials that leave the cone put each member on the grid
    # once: 460 grid rows in 285 passes (725 in 535 when the members of a
    # trial that failed were evaluated again one by one)
    path = _small_circle_sphere(tmp_path, reduce_radius=1.5)
    data = yaml.safe_load(path.read_text())
    data["galerkin"] = {"N_b": 6, "N_f": 3}
    data["window"] = {"t_min": "1/5", "t_max": "1/3"}
    path.write_text(yaml.safe_dump(data))
    passes, grid_values = [], galerkin.grid_values

    def counting(model, state):
        passes.append(len(state.t))
        return grid_values(model, state)

    monkeypatch.setattr(galerkin, "grid_values", counting)
    code, out = _run(tmp_path, "verify", "--config", str(path))
    assert (sum(passes), len(passes)) == (460, 285)
    assert code == 5
    (row,) = json.loads((out / "report.json").read_text())["results"]["rows"]
    assert row["reduction"]["status"] == "reduction-failed"
    assert "positive" in row["reduction"]["detail"]
    assert row["fiber_constancy"]["status"] == "ok"
    assert row["fiber_constancy"]["trials"] == 6
    assert row["fiber_constancy"]["nontrivial_trials"] == 6
    lines = (out / "verify.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].endswith(",reduction-failed")


def test_trials_that_test_nothing_fail_their_row(tmp_path):
    # at amplitude 1e-12 every trial collapses to u = 1, so no solution was
    # checked for fiber content: the row fails as no-nontrivial-trial and
    # the run exits 5; its reduction still passes
    path = _small_circle_sphere(tmp_path, amplitude=1e-12)
    code, out = _run(tmp_path, "verify", "--config", str(path))
    assert code == 5
    (row,) = json.loads((out / "report.json").read_text())["results"]["rows"]
    assert row["reduction"]["status"] == "ok"
    constancy = row["fiber_constancy"]
    assert constancy["status"] == "no-nontrivial-trial"
    assert (constancy["trials"], constancy["nontrivial_trials"]) == (6, 0)
    lines = (out / "verify.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].endswith(",no-nontrivial-trial")


def test_verify_is_byte_deterministic(tmp_path):
    path = _small_circle_sphere(tmp_path)
    _, out_a = _run(tmp_path / "a", "verify", "--config", str(path))
    _, out_b = _run(tmp_path / "b", "verify", "--config", str(path))
    for name in ("report.json", "verify.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def _five_point_circle_sphere(tmp_path, **overrides):
    """The 6 x 3 product config over 1/50..3/2: branch points 1/25, 1/16,
    1/9, 1/4 and 1."""
    path = _small_circle_sphere(tmp_path, **overrides)
    data = yaml.safe_load(path.read_text())
    data["galerkin"] = {"N_b": 6, "N_f": 3}
    data["window"] = {"t_min": "1/50", "t_max": "3/2"}
    path.write_text(yaml.safe_dump(data))
    return path


def _verify_on(cpus, tmp_path, monkeypatch, capsys, *argv):
    """`cli.main(["verify", *argv])` as if this process could run on
    `cpus` CPUs: its exit code, stderr, the number of processes it
    verified in (a list of one) and the files it wrote.  It leaves no process or thread
    running."""
    forked = []
    forked_shares = cli._forked_shares

    def spy(model, cont, points, w):
        forked.append(w)
        return forked_shares(model, cont, points, w)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_forked_shares", spy)
    capsys.readouterr()
    out = tmp_path / f"cpus{cpus}"
    code = cli.main(["verify", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return SimpleNamespace(code=code, err=err, processes=forked or [1], files=files)


@pytest.mark.parametrize("radius, code", [(1e-2, 0), (1.5, 5)])
def test_forked_rows_are_the_in_process_rows(tmp_path, monkeypatch, capsys, radius, code):
    # 3 processes over 5 points: this one takes 1/25 and 1/4, a worker 1/16
    # and 1, another 1/9; at reduce_radius 1.5 every row fails its reduction
    path = _five_point_circle_sphere(tmp_path, reduce_radius=radius)
    alone = _verify_on(1, tmp_path, monkeypatch, capsys, "--config", str(path))
    spread = _verify_on(3, tmp_path, monkeypatch, capsys, "--config", str(path))
    assert (alone.processes, spread.processes) == ([1], [3])
    assert alone.code == spread.code == code
    assert alone.err == spread.err == ""
    assert alone.files == spread.files and set(alone.files) == {"report.json", "verify.csv"}
    assert len(json.loads(alone.files["report.json"])["results"]["rows"]) == 5


@pytest.mark.parametrize("fail_at", [
    {Fraction(1)},                    # a worker's last point
    {Fraction(1, 9), Fraction(1, 4)},  # one worker's point before one of this process
])
def test_an_error_in_a_workers_share_reads_as_in_process(tmp_path, monkeypatch, capsys,
                                                         fail_at):
    # the patch is made before the fork, so the workers inherit it; the
    # error of the first failing point is the one reported, whichever
    # process checked it
    from cscbif import continuation

    verify_fiber_constancy = continuation.verify_fiber_constancy

    def failing(model, bp, *args, **kwargs):
        if bp.t in fail_at:
            raise NoConvergenceError(f"no convergence at t = {bp.t}")
        return verify_fiber_constancy(model, bp, *args, **kwargs)

    monkeypatch.setattr(continuation, "verify_fiber_constancy", failing)
    path = _five_point_circle_sphere(tmp_path)
    alone = _verify_on(1, tmp_path, monkeypatch, capsys, "--config", str(path))
    spread = _verify_on(3, tmp_path, monkeypatch, capsys, "--config", str(path))
    assert (alone.processes, spread.processes) == ([1], [3])
    assert alone.code == spread.code == 1
    assert alone.err == spread.err == f"cscbif: error: no convergence at t = {min(fail_at)}\n"
    assert alone.files == spread.files == {}


def test_a_worker_that_dies_is_a_run_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_send_share", lambda conn, *args: os._exit(3))
    path = _five_point_circle_sphere(tmp_path)
    run = _verify_on(3, tmp_path, monkeypatch, capsys, "--config", str(path))
    assert (run.code, run.processes, run.files) == (1, [3], {})
    assert run.err == "cscbif: error: a verify worker exited with code 3 before sending its rows\n"


def test_a_one_point_window_forks_nothing(tmp_path, monkeypatch, capsys):
    path = _small_circle_sphere(tmp_path)
    run = _verify_on(3, tmp_path, monkeypatch, capsys, "--config", str(path))
    assert (run.code, run.err, run.processes) == (0, "", [1])
    assert len(json.loads(run.files["report.json"])["results"]["rows"]) == 1


def test_verify_uses_every_usable_cpu_up_to_one_per_point(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    assert [cli._processes(n) for n in (0, 1, 2, 5)] == [1, 1, 2, 4]
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert cli._processes(5) == 1  # no fork while another thread runs
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_successive_calls_write_what_fresh_runs_write(tmp_path):
    # main builds its parser once per process; a call after one with other
    # options writes the bytes a fresh interpreter writes for the same argv
    path = _small_circle_sphere(tmp_path)
    runs = [("verify", "--config", str(path), "--seed", "3", "--window", "1/2..3/2"),
            ("verify", "--config", str(path)),
            ("classify", "--config", str(HOPF))]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for k, argv in enumerate(runs):
        shared, fresh = tmp_path / "shared" / str(k), tmp_path / "fresh" / str(k)
        code = cli.main([*argv, "--out", str(shared)])
        done = subprocess.run([sys.executable, "-m", "cscbif.cli", *argv, "--out", str(fresh)],
                              env=env, capture_output=True)
        assert done.returncode == code == 0
        assert sorted(os.listdir(shared)) == sorted(os.listdir(fresh))
        for name in os.listdir(fresh):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name
    assert cli._build_parser() is cli._build_parser()


def test_bad_arguments_after_a_run_fail_as_in_a_fresh_interpreter(tmp_path, capsys):
    # one process runs classify, then verify, on the one parser; bad
    # arguments after that exit with the code and the message a fresh
    # interpreter gives
    path = _small_circle_sphere(tmp_path)
    parser = cli._build_parser()
    assert _run(tmp_path / "c", "classify", "--config", str(HOPF))[0] == 0
    assert _run(tmp_path / "v", "verify", "--config", str(path))[0] == 0
    assert cli._build_parser() is parser
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in (["verify"], ["reduce", "--config", str(path)],
                 ["classify", "--config", str(path), "--seed", "three"], []):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        done = subprocess.run([sys.executable, "-m", "cscbif.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert exc.value.code == done.returncode == 2
        assert err == done.stderr and err.startswith("usage: cscbif")


def test_classify_runs_without_the_numerical_layer(tmp_path):
    # the exact layer is exact: a fresh classify imports neither numpy nor
    # the modules built on it, and writes what an in-process run writes
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    script = ("import sys; from cscbif import cli; "
              f"code = cli.main(['classify', '--config', {str(CIRCLE_SPHERE)!r}, "
              f"'--out', {str(tmp_path / 'fresh')!r}]); "
              "print(code, sorted(m for m in ('numpy', 'cscbif.galerkin', "
              "'cscbif.continuation') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    code, out = _run(tmp_path, "classify", "--config", str(CIRCLE_SPHERE))
    assert code == 0 and sorted(os.listdir(out)) == sorted(os.listdir(tmp_path / "fresh"))
    for name in os.listdir(out):
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


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
    for name in ("report.json", "instants.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_without_a_continuation_section(tmp_path):
    # classify on a config without `continuation`: the seed has nothing to
    # land on, so the report is the same as without it
    _, out_a = _run(tmp_path / "a", "classify", "--config", str(HOPF), "--seed", "3")
    _, out_b = _run(tmp_path / "b", "classify", "--config", str(HOPF))
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert "continuation" not in json.loads((out_a / "report.json").read_text())["config"]


# ---------------------------------------------------------------------------
# the CSV tables against json.dumps


def _dumped_csv(header, rows):
    """The CSV text with every non-string cell written by `json.dumps`."""
    def cell(value):
        return value if isinstance(value, str) else json.dumps(value)
    lines = [",".join(header)]
    lines += [",".join(cell(row[column]) for column in header) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", [
    ("classify", "--config", str(CIRCLE_SPHERE)),
    ("classify", "--config", str(HOPF)),
    ("classify", "--config", str(NONDISCRETE)),
    ("classify", "--config", str(CIRCLE_SPHERE), "--window", "1/10000..2"),
    ("branch", "--config", str(CIRCLE_SPHERE)),
    ("verify", "--config", str(CIRCLE_SPHERE), "--seed", "0"),
], ids=["classify-cs", "classify-hopf", "classify-nondiscrete", "classify-cs-deep",
        "branch-cs", "verify-cs"])
def test_every_shipped_table_is_written_as_json_dumps_writes_it(argv, tmp_path, monkeypatch):
    # every table is the CSV whose non-string cells json.dumps writes, byte
    # for byte
    tables = []
    csv = cli._csv

    def keeping_csv(header, rows):
        text = csv(header, rows)
        tables.append((text, _dumped_csv(header, rows)))
        return text

    monkeypatch.setattr(cli, "_csv", keeping_csv)
    code, _ = _run(tmp_path, *argv)
    assert code == 0
    assert tables and all(ours == dumped for ours, dumped in tables)
