"""The simulator, the tuners and the experiment harness load without
Spark or pandas: only the Spark job modules import pyspark, and only the
code that builds Spark inputs imports ``synth_data``."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return out.stdout.strip()


def test_simulator_path_does_not_load_pandas():
    code = (
        "import sys\n"
        "import repro.tuners, repro.tuners.bo, repro.tuners.gbo, repro.core, repro.profiler\n"
        "import repro.experiments.common\n"
        "print('pandas' in sys.modules)\n"
    )
    assert _run(code) == "False"


def test_experiments_and_simulator_do_not_load_spark():
    # Every experiment ``jobs/run_all.py`` runs, plus the layers under them.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'jobs')!r})\n"
        "import run_all\n"
        "import repro.tuners, repro.core, repro.profiler, repro.simcluster\n"
        "print(sorted(m for m in ('pyspark', 'py4j', 'pandas') if m in sys.modules))\n"
    )
    assert _run(code) == "[]"
