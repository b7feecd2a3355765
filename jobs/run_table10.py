"""Plain-Python entrypoint reproducing paper Table 10."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import table10_overheads

if __name__ == "__main__":
    table10_overheads.run().print()
