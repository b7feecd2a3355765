"""Plain-Python entrypoint reproducing paper Table 7."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import table7_lhs

if __name__ == "__main__":
    table7_lhs.run().print()
