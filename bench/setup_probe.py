"""Set-up probe, run in a fresh interpreter: ready-to-run h2xr for one job.

Usage: python3 bench/setup_probe.py SRC_DIR SUBCOMMAND [CONFIG]

Imports numpy, scipy and the h2xr CLI from SRC_DIR, parses the config
(or the defaults when none is given) and builds its MetricSpec, then
exits.  The benchmark times this process from start to exit as setup_s.
"""

import sys

sys.path.insert(0, sys.argv[1])

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401

from h2xr import cli  # noqa: E402,F401
from h2xr.config import build_config, load_config  # noqa: E402

job = sys.argv[2]
cfg = load_config(sys.argv[3], job) if len(sys.argv) > 3 else build_config({}, job)
if cfg.metric is None:
    sys.exit(1)
