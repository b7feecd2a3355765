"""Plain-Python entrypoint reproducing paper Table 6."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import table6_stats

if __name__ == "__main__":
    table6_stats.run().print()
