"""Entry script for one traced cli_cold request.

    python3 perfbench/child.py SPANS_FILE ARGV...

Times ``import cayleykit``, installs the span recorder, runs
``cayleykit.cli.main(ARGV)`` and writes the import time and the spans to
SPANS_FILE.  The exit code is the CLI's.
"""

import json
import sys
import time

t0 = time.perf_counter()
import cayleykit  # noqa: E402
import cayleykit.cli  # noqa: E402

import_s = time.perf_counter() - t0

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    recorder.install()
    recorder.begin(0)
    try:
        return cayleykit.cli.main(argv)
    finally:
        recorder.uninstall()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": recorder.finish()}, handle)


if __name__ == "__main__":
    raise SystemExit(main())
