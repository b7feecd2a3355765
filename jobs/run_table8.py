"""Plain-Python entrypoint reproducing paper Table 8."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import table8_recommendations

if __name__ == "__main__":
    table8_recommendations.run().print()
