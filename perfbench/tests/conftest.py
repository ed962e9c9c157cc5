"""Put this checkout's package, the repository's test helpers and the
benchmark's own modules on the import path."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "perfbench", ROOT / "tests", ROOT / "src"):
    sys.path.insert(0, str(path))
