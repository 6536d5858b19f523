"""Set-up probe: import spsa_dist and parse one config in a fresh interpreter.

Started by ``run.py``, which takes the set-up time from its own clock reading
just before starting this process to the ``time.monotonic()`` value printed
here (the clock is shared by all processes). Usage:

    python3 perfbench/probe.py SRC_DIR CONFIG

CONFIG is ``bundled:<name>`` for a config shipped with the package, or a path.
Prints ``<monotonic seconds> <parse milliseconds>``.
"""

import sys
import time
from pathlib import Path

src_dir, config = sys.argv[1:]
sys.path.insert(0, src_dir)

import spsa_dist  # noqa: E402
from spsa_dist.config import bundled_config_text, load_config, parse_config  # noqa: E402

if Path(src_dir).resolve() not in Path(spsa_dist.__file__).resolve().parents:
    sys.exit(f"spsa_dist imported from {spsa_dist.__file__}, not from {src_dir}")

start = time.perf_counter()
if config.startswith("bundled:"):
    name = config.split(":", 1)[1]
    parse_config(bundled_config_text(name), source=name)
else:
    load_config(config)
parse_ms = (time.perf_counter() - start) * 1e3
print(f"{time.monotonic()!r} {parse_ms!r}")
