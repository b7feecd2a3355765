"""Plain-Python entrypoint reproducing the fig26_rf numbers."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import fig26_rf

if __name__ == "__main__":
    fig26_rf.run().print()
