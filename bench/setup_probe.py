"""Set-up probe: a fresh interpreter imports doa.cli and loads one document.

run.py times this script from outside, interpreter start-up included, which
is what every ``doa`` command pays before its job starts.

    python3 bench/setup_probe.py DOCUMENT.json   (with src/ on PYTHONPATH)
"""

import sys

import doa.cli  # noqa: F401  (the import is the measured work)
from doa.document import load_document

load_document(sys.argv[1])
