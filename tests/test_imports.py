import os
import subprocess
import sys
from pathlib import Path

import periodforge

# The exact layers load numpy only inside the functions that use it: the
# order in which a process loads numpy moves its resident set.
EXACT_MODULES = ("graphs", "canonical", "polynomials", "graphcomplex", "forms")


def test_exact_layers_do_not_import_numpy():
    code = ("import sys\n"
            + "".join(f"import periodforge.{m}\n" for m in EXACT_MODULES)
            + "print('numpy' in sys.modules)\n")
    src = str(Path(periodforge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False", out.stderr
