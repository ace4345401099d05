"""Time one fresh interpreter's set-up for a workload config.

Usage:

    python3 bench/setup_probe.py CONFIG_JSON SEED

Set-up is what every ``sbrl`` run pays before its first computation:
importing ``sbrl``, loading and validating the config
(``cli.load_config`` / ``cli.resolve_config``) and building its objects
through the ``library`` builders.  Prints one JSON line with the three
phase times and the interpreter and numpy versions.  bench/run.py times the
whole process, from spawn to exit, as ``setup_s``.
"""

import json
import platform
import sys
import time


def build(resolved, library):
    """Build every object the config describes, as the CLI commands do."""
    noise = None
    if "noise" in resolved:
        noise = library.noise_from_config(resolved["noise"])
    system, _ = library.system_from_config(resolved["system"], noise=noise)
    if "storage" in resolved:
        library.storage_from_config(resolved["storage"])
    if "law" in resolved:
        library.law_from_config(resolved["law"])
    if "ensemble" in resolved:
        library.ensemble_from_config(resolved["ensemble"]["disturbance"],
                                     system.n_v)


def main(argv):
    config_path, seed = argv[0], int(argv[1])
    t0 = time.perf_counter()
    import numpy
    from sbrl import cli, library
    t1 = time.perf_counter()
    resolved = cli.resolve_config(cli.load_config(config_path),
                                  seed_override=seed)
    t2 = time.perf_counter()
    build(resolved, library)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1,
                      "build_s": t3 - t2,
                      "python": platform.python_version(),
                      "numpy": numpy.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
