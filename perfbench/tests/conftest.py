"""Put the benchmark's modules on the import path (``src`` is already
there through the repository's pytest configuration)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
