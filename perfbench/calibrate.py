"""Reference kernels that measure how fast the host runs Python right now.

Each kernel is fixed work of the same kind as one workload's hot layer:
rational and big-integer arithmetic with container churn (LLL and
enumeration), a Gray-code weight sweep (codeword sweeps), and mod-2
peeling of integer vectors (the d-bar coset walk).  None calls
``codelattice``, so a change to the program cannot move them.  ``KERNELS``
maps a name to (function, seconds it took on the shared 2-vCPU Intel Xeon
host the benchmark was written on).
"""

from __future__ import annotations

from fractions import Fraction

import oracles


def rational_mix() -> None:
    """Fixed sums of small rationals, 127-bit modular products and dict churn."""
    acc = Fraction(0)
    for i in range(1, 800):
        acc += Fraction(i * 7919 % 1009, i)
    x = 1
    for _ in range(1000):
        x = (x * 1103515245 + 12345) % (1 << 127)
    table = {}
    for i in range(10000):
        table[i % 997] = (i, i * i)


def weight_sweep() -> None:
    """Weight distribution of a fixed [48, 14] code by a Gray-code walk."""
    basis = [(0x9E3779B97F4A7C15 * (i + 1)) % (1 << 48) for i in range(14)]
    oracles.weight_distribution(48, basis)


def coset_peeling() -> None:
    """Mod-2 peeling of integer vectors against a fixed two-level tower."""
    perm = list(range(16))
    levels = [oracles.reed_muller(2, 4, perm), oracles.reed_muller(1, 4, perm)]
    for t in range(300):
        v = [(t * 7 + i * i * 3 + t * i) % 4 for i in range(16)]
        oracles.dbar_member(16, levels, v)


KERNELS = {
    "rational_mix": (rational_mix, 0.0060),
    "weight_sweep": (weight_sweep, 0.0045),
    "coset_peeling": (coset_peeling, 0.0045),
}
