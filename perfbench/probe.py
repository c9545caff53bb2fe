"""Set-up probe: a fresh interpreter imports the CLI and loads a config.

run.py times this process from its start to the ``ready`` line.
"""

import sys

from optomagnon.cli import load_config

load_config(sys.argv[1])
print("ready", flush=True)
