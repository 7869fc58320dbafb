"""The two table workloads and the oracles for their outputs.

`ruled_sweep` runs `tables ruled --m-max 12` (JSON, so the witnesses can
be re-verified); `hopf_cap` runs `tables hopf --degree 7 --md`.  Both run
in a fresh process per command, the way a user runs them.
"""

from __future__ import annotations

import json
from pathlib import Path

RULED_M_MAX = 12
GOLDEN_M_MAX = 10  # tests/golden/ruled.md covers F0..F10
HOPF_DEGREE = 7

COMMANDS = {
    "ruled_sweep": ["tables", "ruled", "--m-max", str(RULED_M_MAX)],
    "hopf_cap": ["tables", "hopf", "--degree", str(HOPF_DEGREE), "--md"],
}


def _md_line(row) -> str:
    return f"| {row['manifold']} | {row['stratum']} | {row['dim_h2']} | {row['verdict']} |"


def check_ruled(out: str, root: Path) -> list[str]:
    """Rows for m <= 10 match the golden table, F11/F12 follow Table 1, and
    every obstructed witness re-verifies after a JSON reload."""
    from poissonlab import ruled
    from poissonlab.expr import EvalContext, eval_str
    from poissonlab.laurent import LaurentPoly
    from poissonlab.obstruction import Certificate, verify_certificate

    errors = []
    try:
        rows = json.loads(out)
    except ValueError:
        return [f"output is not JSON: {out[:200]!r}"]
    golden = [ln for ln in (root / "tests/golden/ruled.md").read_text().splitlines()
              if ln.startswith("| F")]
    got = [_md_line(r) for r in rows if int(r["manifold"][1:]) <= GOLDEN_M_MAX]
    if got != golden:
        errors.append("ruled rows for m <= 10 differ from tests/golden/ruled.md")
    for m in range(GOLDEN_M_MAX + 1, RULED_M_MAX + 1):
        strata = {r["stratum"]: r for r in rows if r["manifold"] == f"F{m}"}
        want = {"e=0": ("obstructed", m - 3), "e!=0": ("unobstructed_h2_zero", 0)}
        for stratum, (verdict, dim_h2) in want.items():
            r = strata.get(stratum)
            if r is None or (r["verdict"], r["dim_h2"]) != (verdict, dim_h2):
                errors.append(f"F{m} {stratum}: got {r}, Table 1 gives {verdict}/{dim_h2}")
    for r in rows:
        if r["verdict"] != "obstructed":
            continue
        m = int(r["manifold"][1:])
        cert = Certificate.from_json(json.dumps({
            "manifold": r["manifold"], "stratum": r["stratum"], "verdict": r["verdict"],
            "witness": r.get("witness"), "class": r.get("class")}))
        rs = ruled.make_surface(m, ("e0", "e1", "e2") + tuple(f"f{j}" for j in range(m + 3)))
        zero = LaurentPoly.zero(rs.registry)
        f_sym = sum((rs.param(f"f{j}") * rs.z(j) for j in range(m + 3)), zero)
        model = ruled.complex_model(rs, ruled.RuledPoisson(rs, zero, zero, f_sym))
        ectx = EvalContext(rs.chart1, rs.registry, ())
        if cert.witness is None or not verify_certificate(
                cert, model, lambda s: eval_str(s, ectx).part(())):
            errors.append(f"{r['manifold']} witness does not re-verify")
    return errors


def check_hopf(out: str, root: Path) -> list[str]:
    """The tables do not depend on the cap, so the output is the golden file."""
    if out != (root / "tests/golden/hopf.md").read_text():
        return ["hopf tables differ from tests/golden/hopf.md"]
    return []


CHECKS = {"ruled_sweep": check_ruled, "hopf_cap": check_hopf}
