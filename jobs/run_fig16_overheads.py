"""Plain-Python entrypoint reproducing the fig16_overheads numbers."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import fig16_overheads

if __name__ == "__main__":
    fig16_overheads.run().print()
