"""Write the generated input files of one benchmark workload.

Run in a fresh interpreter from the root of a checkout:

    python3 perfbench/inputs.py WORKLOAD OUT_DIR

Every file is produced by qgcheck's own public builders and emitters, so
the time this takes is part of the benchmark's set-up cost.
"""

from __future__ import annotations

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from qgcheck import (GroupTable, emit_model, emit_morphism,  # noqa: E402
                     restriction_morphism)


def dihedral(n: int) -> GroupTable:
    """The dihedral group of order 2n on elements r^a s^b, index a + n*b."""
    def mul(i, j):
        a, b = i % n, i // n
        c, d = j % n, j // n
        return (a + (c if b == 0 else -c)) % n + n * ((b + d) % 2)
    labels = tuple(f"r{a}" + ("s" if b else "") for b in range(2)
                   for a in range(n))
    return GroupTable(f"d{n}", labels,
                      [[mul(i, j) for j in range(2 * n)]
                       for i in range(2 * n)])


def even_permutations(group: GroupTable) -> list[int]:
    """Indices of the even elements of GroupTable.symmetric(n)."""
    def even(label):
        p = [int(ch) for ch in label]
        return sum(p[i] > p[j] for i in range(len(p))
                   for j in range(i + 1, len(p))) % 2 == 0
    return [i for i, e in enumerate(group.elements) if even(e)]


def write_restriction(group: GroupTable, indices, out: str, stem: str):
    mor = restriction_morphism(group, indices)
    emit_model(mor.source, os.path.join(out, f"{stem}_g.json"))
    emit_model(mor.target, os.path.join(out, f"{stem}_h.json"))
    emit_morphism(mor, os.path.join(out, f"{stem}_map.json"))


def generate(workload: str, out: str):
    os.makedirs(out, exist_ok=True)
    if workload == "subgroup-embed":
        s4 = GroupTable.symmetric(4)
        write_restriction(s4, even_permutations(s4), out, "s4_a4")
        write_restriction(dihedral(6), [0, 2, 4, 6, 8, 10], out, "d6_s3")
    elif workload != "exact-cyclotomic":
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    generate(sys.argv[1], sys.argv[2])
