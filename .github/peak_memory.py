"""Run one jpdkit command in this process, then check its peak memory.

    python .github/peak_memory.py LIMIT_MB COMMAND [ARGS ...]

Fails if the command does not exit 0, or if the process's peak resident set
(``VmHWM`` in ``/proc/self/status``, Linux only) reaches LIMIT_MB megabytes.
Run each command in its own process, so each peak is its own.
"""

import sys

from jpdkit.cli import main

limit_mb, argv = float(sys.argv[1]), sys.argv[2:]
assert main(argv) == 0, f"jpdkit {' '.join(argv)} failed"
with open("/proc/self/status") as fh:
    kib = next(int(line.split()[1]) for line in fh
               if line.startswith("VmHWM:"))
assert kib * 1024 / 1e6 < limit_mb, (
    f"jpdkit {argv[0]} peaked at {kib} KiB, not below {limit_mb} MB")
print(f"jpdkit {argv[0]} peaked at {kib * 1024 / 1e6:.1f} MB")
