"""Module attribution of the traced-run reducer."""

import cProfile
import pstats

from pytest import approx

from qgcheck import Cyc
from reduce import layer_of, reduce_stats

SCALARS = "/x/src/qgcheck/scalars.py"
GNS = "/x/src/qgcheck/gns.py"
LINALG = "/x/src/qgcheck/linalg.py"
FRACTIONS = "/usr/lib/python3.11/fractions.py"
NUMPY = "~"

QUALNAMES = {SCALARS: {10: "Cyc.__mul__", 20: "Cyc.__init__"},
             GNS: {30: "build_gns", 40: "analytic_suite"},
             LINALG: {50: "LinMap.__matmul__"}}

MUL = (SCALARS, 10, "__mul__")
INIT = (SCALARS, 20, "__init__")
FR_MUL = (FRACTIONS, 500, "_mul")
BUILD = (GNS, 30, "build_gns")
SUITE = (GNS, 40, "analytic_suite")
EIGH = (NUMPY, 0, "<built-in method numpy.linalg._umath_linalg.eigh>")
MATMUL = (LINALG, 50, "__matmul__")
ROOT = ("/x/src/qgcheck/cli.py", 1, "main")


def synthetic_stats():
    # key: (primitive calls, calls, self s, inclusive s, callers)
    # caller entry: (primitive calls, calls, self s, inclusive s)
    return {
        ROOT: (1, 1, 0.01, 10.0, {}),
        BUILD: (2, 2, 0.1, 6.0, {ROOT: (2, 2, 0.1, 6.0)}),
        SUITE: (1, 1, 0.05, 3.0, {ROOT: (1, 1, 0.05, 3.0)}),
        EIGH: (5, 5, 4.0, 4.0, {BUILD: (3, 3, 2.5, 2.5),
                                SUITE: (2, 2, 1.5, 1.5)}),
        MUL: (7, 7, 0.7, 1.5, {BUILD: (7, 7, 0.7, 1.5)}),
        INIT: (9, 9, 0.3, 0.6, {MUL: (7, 7, 0.2, 0.4),
                                BUILD: (2, 2, 0.1, 0.2)}),
        FR_MUL: (20, 20, 1.1, 1.1, {MUL: (20, 20, 1.1, 1.1)}),
        # a recursive call is counted once, with its outermost time
        MATMUL: (3, 4, 0.4, 0.5, {ROOT: (3, 3, 0.4, 0.5),
                                  (LINALG, 50, "__matmul__"):
                                      (0, 1, 0.05, 0.1)}),
    }


def test_layer_of_files():
    assert layer_of(SCALARS) == "scalars"
    assert layer_of(FRACTIONS) == "scalars"
    assert layer_of(GNS) == "gns"
    assert layer_of("/usr/lib/python3.11/json/decoder.py") is None
    assert layer_of(NUMPY) is None


def test_fractions_count_under_scalars_and_gns_keeps_inclusive_time():
    m = reduce_stats(synthetic_stats(), lambda f: QUALNAMES.get(f, {}))
    assert m["scalars.self_s"] == approx(0.7 + 0.3 + 1.1)
    assert m["scalars.mul.calls"] == 7
    assert m["scalars.new.calls"] == 9
    # numpy time belongs to no layer's self time ...
    assert m["gns.self_s"] == approx(0.1 + 0.05)
    # ... but stays in the float layer's inclusive time
    assert m["gns.build_gns.cum_s"] == 6.0
    assert m["gns.build_gns.calls"] == 2
    assert m["linalg.matmul.calls"] == 4
    assert m["linalg.self_s"] == 0.4
    assert m["duality.build_dual.calls"] == 0
    assert m["duality.build_dual.cum_s"] == 0.0


def test_real_profile_counts_cyc_products_and_their_fractions():
    a, b = Cyc(4, [1, 2, 3]), Cyc(4, [-1, 5])
    prof = cProfile.Profile()
    prof.runcall(lambda: [a * b for _ in range(7)])
    stats = pstats.Stats(prof).stats
    m = reduce_stats(stats)
    assert m["scalars.mul.calls"] == 7
    assert m["scalars.new.calls"] >= 7
    fractions_tt = sum(v[2] for k, v in stats.items()
                       if k[0].endswith("fractions.py"))
    cyc_tt = sum(v[2] for k, v in stats.items()
                 if k[0].endswith("qgcheck/scalars.py"))
    assert fractions_tt > 0
    assert m["scalars.self_s"] == approx(fractions_tt + cyc_tt)
