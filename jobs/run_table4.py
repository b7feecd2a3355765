"""Plain-Python entrypoint reproducing paper Table 4."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import table4_defaults

if __name__ == "__main__":
    table4_defaults.run().print()
