"""The README's library quick start, run verbatim."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    # ac3_bound[0], ac9[0].bound, the inverse residual and the two
    # equivariance residuals
    printed = [float(v) for v in capsys.readouterr().out.split()]
    assert len(printed) == 5 and all(math.isfinite(v) for v in printed)
    assert printed[0] < 1.0 and max(printed[2:]) < 1e-8
