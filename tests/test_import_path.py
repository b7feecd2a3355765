"""The simulator, the tuners and the experiment harness load without
pandas: only the code that builds Spark inputs imports ``synth_data``."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_simulator_path_does_not_load_pandas():
    code = (
        "import sys\n"
        "import repro.tuners, repro.tuners.bo, repro.tuners.gbo, repro.core, repro.profiler\n"
        "import repro.experiments.common\n"
        "print('pandas' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "False"
