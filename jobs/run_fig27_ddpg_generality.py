"""Plain-Python entrypoint reproducing the fig27_ddpg_generality numbers."""
import _common  # noqa: F401  (sys.path setup)

from repro.experiments import fig27_ddpg_generality

if __name__ == "__main__":
    fig27_ddpg_generality.run().print()
