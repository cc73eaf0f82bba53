import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
# the benchmark's modules import each other by bare name, as run.py does
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
