import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules and the library sources of this checkout
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]
