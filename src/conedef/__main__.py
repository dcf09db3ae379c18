"""``python -m conedef``: the command line, run and ended by :func:`conedef.cli.run`."""

from .cli import run

if __name__ == "__main__":
    run()
