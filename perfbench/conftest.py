import sys
from pathlib import Path

# the benchmark runs the package from source; so do its tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
