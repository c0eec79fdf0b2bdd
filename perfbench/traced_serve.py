"""``repro serve`` with the benchmark's timing wrappers installed.

Usage: ``python traced_serve.py ROLLUP_JSON -- serve --port 0 ...``.  The
wrappers go in before the server builds its session, so store opening and
hydration are traced too.  When the server exits (SIGTERM drains it), the
span rollup and the list of absent hooks are written to ``ROLLUP_JSON``.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    out_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: traced_serve.py ROLLUP_JSON -- <repro args>")
    tracer = Tracer().install()
    from repro.cli import main as repro_main  # after the hooks, on purpose

    try:
        return repro_main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as handle:
            json.dump({"rollup": tracer.rollup(), "absent": tracer.absent}, handle)


if __name__ == "__main__":
    sys.exit(main())
