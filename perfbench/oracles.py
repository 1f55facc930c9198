"""Output checks for the benchmark workloads, independent of cscbif.

Each check reads what one `cscbif` command wrote and returns a `Tally`:
operations attempted, operations failed and units of work done.  An
operation is one instant row (classify), one branch point (branch) or one
verify row (verify); an expected operation missing from the output counts as
attempted and failed, as does a row whose status is not ok or whose values
disagree with the oracle.  The oracles use only the standard library and
PyYAML, never cscbif itself, so that the measured process holds nothing the
program would not load.

Sample counts and CSV bytes are not pinned: a better corrector may change
the last digits and the number of continuation steps.
"""

from __future__ import annotations

import csv
import decimal
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import yaml

BRANCH_T_TOL = 1e-8          # branch point against its exact instant
RESIDUAL_MAX = 1e-9          # every branch sample
FIBER_FRACTION_MAX = 1e-8    # every branch sample
SURD_REL_TOL = 1e-14         # 17-digit float instant against a 50-digit root


@dataclass(frozen=True)
class Tally:
    attempted: int
    failed: int
    work: int

    def __add__(self, other):
        return Tally(self.attempted + other.attempted, self.failed + other.failed,
                     self.work + other.work)


def inverse_squares(t_min, t_max, j_max=None):
    """Exact instants 1/j^2 of the unit circle x unit 2-sphere in
    (t_min, t_max], j <= j_max: there s(t) / (m - 1) = 1/t, which meets the
    circle eigenvalue j^2 at t = 1/j^2 and no fiber-dependent mode ever."""
    t_min, t_max = Fraction(t_min), Fraction(t_max)
    out, j = [], 1
    while Fraction(1, j * j) > t_min and (j_max is None or j <= j_max):
        if Fraction(1, j * j) <= t_max:
            out.append(Fraction(1, j * j))
        j += 1
    return out


def _report(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _match(rows, expected, key, row_ok):
    """Pair each row with one expected key (`key(row, k)` true when row
    answers k) and count: rows that match nothing, match twice or fail
    `row_ok`, plus expected keys no row answered."""
    unmatched = list(expected)
    failed = work = 0
    for row in rows:
        hit = next((k for k in unmatched if key(row, k)), None)
        if hit is None or not row_ok(row, hit):
            failed += 1
            continue
        unmatched.remove(hit)
        work += 1
    return Tally(len(rows) + len(unmatched), failed + len(unmatched), work)


def _all_failed(expected_count):
    return Tally(expected_count, expected_count, 0)


# ---------------------------------------------------------------------------
# classify

def _instant_ok(row):
    return row["horizontal"] and row["certified"] and row["certify_error"] is None


def classify_circle_sphere(code, out_dir, expected):
    """Instants are exactly the expected 1/j^2, each horizontal and
    certified; work is certified instants."""
    if code != 0:
        return _all_failed(len(expected))
    rep = _report(out_dir)
    rows = rep["results"]["instants"]
    csv_ts = [r["t"] for r in _csv_rows(os.path.join(out_dir, "instants.csv"))]
    if csv_ts != [r["t"] for r in rows]:
        return _all_failed(max(len(expected), len(rows)))
    return _match(
        rows, expected,
        key=lambda row, t: Fraction(row["t"]) == t,
        row_ok=lambda row, t: _instant_ok(row) and _witness_pairs(row) == {(1 / t, 0)},
    )


def _witness_pairs(row):
    return {(Fraction(b), Fraction(lam)) for b, lam in row["witnesses"]}


def _dec(value):
    value = Fraction(str(value))
    return decimal.Decimal(value.numerator) / value.denominator


def _sphere_scalar(node):
    n, r = int(node["dim"]), Fraction(str(node["radius"]))
    return n * (n - 1) / r ** 2


def hopf_instants(config_path):
    """Roots in the config window of |A|^2 t^2 + ((m-1) b - s_h) t +
    ((m-1) lam - s_g) = 0 for each listed joint pair, at 50 digits:
    [(root, {(b, lam), ...})] ascending, coincident roots merged."""
    with open(config_path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    m1 = cfg["base"]["dim"] + cfg["fiber"]["dim"] - 1
    s_h, s_g = _sphere_scalar(cfg["base"]), _sphere_scalar(cfg["fiber"])
    a2 = Fraction(str(cfg["a_norm_sq"]))
    win = cfg["window"]
    with decimal.localcontext(decimal.Context(prec=50)):
        lo, hi = _dec(win["t_min"]), _dec(win["t_max"])
        roots = []
        for b, lam, _mult in cfg["joint_pairs"]:
            if b == 0 and lam == 0:
                continue
            qa, qb, qc = (_dec(v) for v in (a2, m1 * Fraction(b) - s_h, m1 * Fraction(lam) - s_g))
            if qa == 0:
                candidates = {-qc / qb} if qb != 0 else set()
            else:
                disc = qb * qb - 4 * qa * qc
                candidates = set() if disc < 0 else {
                    (-qb - disc.sqrt()) / (2 * qa), (-qb + disc.sqrt()) / (2 * qa)}
            for t in candidates:
                if lo < t <= hi:
                    roots.append((t, (Fraction(b), Fraction(lam))))
        roots.sort()
        merged = []
        for t, pair in roots:
            if merged and abs(merged[-1][0] - t) < decimal.Decimal("1e-40"):
                merged[-1][1].add(pair)
            else:
                merged.append((t, {pair}))
    return merged


def classify_hopf(code, out_dir, config_path):
    """Each instant matches a root of the cleared quadratic of its joint
    pairs; every root in the window is listed; rows are horizontal and
    certified.  Work is certified instants."""
    expected = hopf_instants(config_path)
    if code != 0:
        return _all_failed(len(expected))
    rows = _report(out_dir)["results"]["instants"]

    def close(row, k):
        t = Fraction(row["t"])
        return abs(t - Fraction(k[0])) <= Fraction(SURD_REL_TOL) * Fraction(k[0])

    return _match(rows, expected, key=close,
                  row_ok=lambda row, k: _instant_ok(row) and _witness_pairs(row) == k[1])


def classify_nondiscrete(code, out_dir, witness):
    """One operation: the nondiscrete verdict with its witness pair."""
    if code != 0:
        return _all_failed(1)
    res = _report(out_dir)["results"]
    w = res["nondiscrete_witness"] or {}
    ok = (res["nondiscrete"] is True and res["instants"] == []
          and (Fraction(w.get("base_eigenvalue", "-1")),
               Fraction(w.get("fiber_eigenvalue", "-1"))) == witness)
    return Tally(1, 0 if ok else 1, 0)


# ---------------------------------------------------------------------------
# branch and verify

def _near(row, t):
    return abs(float(row["t"]) - float(t)) <= BRANCH_T_TOL


def branch(code, out_dir, expected):
    """One branch point per expected instant, each ok, and every sample of
    its CSV within the residual and fiber-fraction bounds.  Work is
    converged branch samples."""
    if code != 0:
        return _all_failed(len(expected))
    rep = _report(out_dir)
    samples = []

    def ok(row, t):
        if row.get("status") != "ok":
            return False
        data = _csv_rows(os.path.join(out_dir, row["file"]))
        good = bool(data) and all(
            float(s["residual_norm"]) <= RESIDUAL_MAX
            and float(s["fiber_fraction"]) <= FIBER_FRACTION_MAX for s in data
        )
        if good:
            samples.append(len(data))
        return good

    tally = _match(rep["results"]["branch_points"], expected, key=_near, row_ok=ok)
    return Tally(tally.attempted, tally.failed, sum(samples))


def verify(code, out_dir, expected):
    """`passed` and one ok row per expected instant.  Work is fiber-constancy
    trials plus reduction samples, the latter as the report's provenance
    records them."""
    if code != 0:
        return _all_failed(len(expected))
    rep = _report(out_dir)
    res = rep["results"]
    reduce_samples = next(p["inputs"]["n_samples"] for p in rep["provenance"]
                          if p["operation"] == "continuation.lyapunov_schmidt_reduce")
    if res.get("passed") is not True:
        return _all_failed(max(len(expected), len(res["rows"])))
    work = []

    def ok(row, t):
        if row["status"] != "ok":
            return False
        work.append(row["fiber_constancy"]["trials"] + reduce_samples)
        return True

    tally = _match(res["rows"], expected, key=_near, row_ok=ok)
    return Tally(tally.attempted, tally.failed, sum(work))
