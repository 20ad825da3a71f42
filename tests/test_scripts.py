import csv
import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_divergence_sweep_rows(tmp_path, capsys):
    out = tmp_path / "divergence.csv"
    assert load_script("divergence_sweep").run(["--out", str(out)]) == 0
    with out.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["c", "lambda", "smallest_divergent_halfwidth", "j_partial_sum_w50"]
    grid = [(c, lam) for c in (1e-4, 1e-3, 1e-2, 0.1) for lam in (0.1, 0.5, 1.0, 2.0)]
    assert [(float(r[0]), float(r[1])) for r in rows] == grid
    for (c, lam), (_, _, w, j_sum) in zip(grid, rows):
        # constant gamma = c: the future terms at n = 0 are r (1 + r)^k with
        # r = c e^{-lam}, so ten of them already witness divergence, and
        # J over k = 1..50 sums to (1 + r)((1 + r)^50 - 1)
        assert w == "10"
        r = c * math.exp(-lam)
        assert float(j_sum) == pytest.approx((1.0 + r) * ((1.0 + r) ** 50 - 1.0), rel=1e-12)
    assert f"wrote {out}" in capsys.readouterr().out
