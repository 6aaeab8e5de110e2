"""``python -m semflow`` and the installed ``semflow`` command: the command
line as a process of its own."""

import gc
import sys

from .cli import main


def run():
    """Run the command line and exit with its status.  numpy's and semflow's
    import-time objects live until the process ends.  In the permanent
    generation neither the run's collections nor the interpreter's final
    ones walk them again.  Only this process entry freezes: cli.main called
    in process keeps the caller's collector as it is."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
