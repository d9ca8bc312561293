"""Child-process probes, one measurement per fresh interpreter.

    python3 probe.py setup SRC CONFIG [OVERRIDE ...]
        import jpdkit, load the config, build the scene (with its pair
        density) and the camera; prints {"setup_s": seconds}
    python3 probe.py cli SRC ARG ...
        run one jpdkit command; prints {"rc": code, "peak_rss_mb": MB}

SRC is the program's ``src`` directory.  The result is the last line of
standard output; the command's own output is discarded.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def setup(config_path: str, overrides: list[str]) -> dict:
    import jpdkit  # noqa: F401
    from jpdkit.config import build_camera, build_scene, load_config

    config = load_config(config_path, overrides)
    scene = build_scene(config)
    if config.pairs["mode"] == "near":
        scene.near_density()
    else:
        scene.far_density()
    build_camera(config)
    return {"setup_s": perf_counter() - _T0}


def cli(argv: list[str]) -> dict:
    from jpdkit.cli import main

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return {"rc": rc, "peak_rss_mb": peak_rss_kib() * 1024 / 1e6}


def peak_rss_kib() -> int:
    """High-water resident set of this process image (Linux).

    ru_maxrss is no use here: Linux carries the parent's high-water mark
    across fork and exec into it, so a child of a large benchmark process
    would report the parent's peak.  VmHWM belongs to the image exec built.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    kind, src, *rest = sys.argv[1:]
    sys.path.insert(0, src)
    result = setup(rest[0], rest[1:]) if kind == "setup" else cli(rest)
    print(json.dumps(result))
