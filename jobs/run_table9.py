"""Plain-Python entrypoint reproducing paper Table 9."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import table9_bo_svm

if __name__ == "__main__":
    table9_bo_svm.run().print()
