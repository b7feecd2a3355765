"""Plain-Python entrypoint reproducing the fig17_perf numbers."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import fig17_perf

if __name__ == "__main__":
    fig17_perf.run().print()
