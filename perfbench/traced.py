"""Run one qgcheck command under cProfile and save the profile.

Run in a fresh interpreter from the root of a checkout:

    python3 perfbench/traced.py PROFILE_OUT VERB [ARGS...]

The package is imported before profiling starts, so the profile holds
the command's work and not module loading.  Exits with the command's
own exit code.
"""

from __future__ import annotations

import cProfile
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from qgcheck.cli import main  # noqa: E402

if __name__ == "__main__":
    out, argv = sys.argv[1], sys.argv[2:]
    prof = cProfile.Profile()
    rc = prof.runcall(main, argv)
    prof.dump_stats(out)
    sys.exit(rc)
