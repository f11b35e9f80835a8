"""Put the benchmark's modules and the package sources on the path.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
