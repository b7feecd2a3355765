"""Plain-Python entrypoint reproducing the fig21_tpch numbers."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import tpch_relm

if __name__ == "__main__":
    tpch_relm.run().print()
