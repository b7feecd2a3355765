"""Plain-Python entrypoint reproducing paper Table 5."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import table5_manual_pagerank

if __name__ == "__main__":
    table5_manual_pagerank.run().print()
