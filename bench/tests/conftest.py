"""Make ``bench`` and ``repro`` importable when pytest starts here.

``bench/tests`` is outside the repo's ``testpaths``; run it with
``python -m pytest bench/tests``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
