"""Set-up probe: import sdwave from SRC and load each config, then say "ready".

    python3 perfbench/setup_probe.py SRC CONFIG...

`run.py` starts this in a fresh interpreter and times it from process start
to the "ready" line, which is the set-up a CLI user pays before the first
operation.
"""
import sys

sys.path.insert(0, sys.argv[1])

import sdwave.cli  # noqa: E402,F401  (imports every layer)
from sdwave.config import build_model, load_config  # noqa: E402

for path in sys.argv[2:]:
    build_model(load_config(path))
print("ready", flush=True)
