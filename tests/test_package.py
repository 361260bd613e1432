import os
import subprocess
import sys
import types
from pathlib import Path

import sdar

from conftest import gen_setar

SRC = str(Path(sdar.__file__).resolve().parent.parent)

SCIPY_LOADED = (
    "any(m.split('.')[0] == 'scipy' for m in sys.modules)"
)


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_every_exported_name_resolves():
    missing = [name for name in sdar.__all__ if not hasattr(sdar, name)]
    assert missing == []
    assert "rolling_evaluate" in sdar.__all__
    assert sdar.__all__ == sorted(sdar.__all__)
    assert len(set(sdar.__all__)) == len(sdar.__all__)
    bound = {name for name, value in vars(sdar).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(sdar.__all__) == bound


def test_import_and_non_fitting_commands_load_no_scipy(tmp_path):
    series = tmp_path / "series.csv"
    series.write_text(
        "value\n" + "\n".join(f"{v:.12g}" for v in gen_setar(400, seed=3)) + "\n"
    )
    code = f"""
import sys
import sdar
assert not {SCIPY_LOADED}, "import sdar"
from sdar.cli import main
assert main(["check", "--kind", "M1", "--gamma0", "0.4", "--gamma1", "0.07",
             "--r", "0.32"]) == 0
assert not {SCIPY_LOADED}, "check"
assert main(["fit-setar", "--input", {str(series)!r}, "--max-lag", "2",
             "--out", {str(tmp_path / 'setar')!r}]) == 0
assert not {SCIPY_LOADED}, "fit-setar"
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr


# Run first in a subprocess: every later import of scipy then raises ImportError.
BLOCK_SCIPY = 'import sys; sys.modules["scipy"] = None'
SCIPY_BLOCKED = (
    'sys.modules["scipy"] is None and not any(m.startswith("scipy.") for m in sys.modules)'
)


def test_fit_loads_no_scipy():
    code = f"""
{BLOCK_SCIPY}
import numpy as np
import sdar
truth = sdar.SdarParams(-1.5, sdar.PersistenceParams(0.4, 0.3, 0.5), 1.0,
                        sdar.PersistenceKind.M1)
res = sdar.fit(sdar.simulate(truth, n=300, seed=1), sdar.PersistenceKind.M1,
               n_starts=2, seed=0)
assert np.isfinite(res.loglik)
assert {SCIPY_BLOCKED}
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr


def test_fitting_commands_load_no_scipy(tmp_path):
    series = tmp_path / "series.csv"
    series.write_text(
        "value\n" + "\n".join(f"{v:.12g}" for v in gen_setar(300, seed=4)) + "\n"
    )
    code = f"""
{BLOCK_SCIPY}
from sdar.cli import main
assert main(["fit-sdar", "--input", {str(series)!r}, "--kind", "both",
             "--n-starts", "4", "--out", {str(tmp_path / 'fit')!r}]) == 0
assert main(["compare", "--input", {str(series)!r}, "--n-train", "260", "--kind", "M1",
             "--n-starts", "4", "--max-lag", "1", "--out", {str(tmp_path / 'cmp')!r}]) == 0
assert {SCIPY_BLOCKED}
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
