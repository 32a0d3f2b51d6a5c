"""Time a fresh process's set-up: import rareebm, load a config, build its problem.

    python3 perfbench/setup_timer.py <src dir> <config.json>

Prints the seconds from the first statement of this script to the built
problem. Interpreter start-up before the script runs is not included.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402


def main() -> None:
    src, config = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from rareebm.harness import build_problem, load_config

    build_problem(load_config(config)["problem"])
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main()
