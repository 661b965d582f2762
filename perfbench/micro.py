"""Layer micro-benchmarks for the scalar and elimination layers.

Usage: python micro.py SEED GROUP_REF

- scalars.cyclotomic_mul.us / scalars.cyclotomic_inverse.us: median
  microseconds per operation over a seeded operand set in Q(zeta_12). Operands
  have conductor 3, 4 or 12, every conductor pair equally often, so mixed pairs
  exercise promotion; the seed draws only the coefficients.
- linalg.rank_det.ms: median milliseconds of mat_rank_det_kernel on the
  S-matrix of GROUP_REF from s_matrix_character_formula.

Prints one JSON object with these values and the rank it found; exits 1 if a
result fails its self-check.
"""

import json
import random
import statistics
import sys
import time
from fractions import Fraction

ROUNDS = 15
RANK_ROUNDS = 5
CONDUCTORS = (3, 4, 12)
OPERANDS = 45  # five of each conductor pair


def _median_per_op(fn, operands, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        for args in operands:
            fn(*args)
        times.append((time.perf_counter() - start) / len(operands))
    return statistics.median(times)


def main(argv: list[str]) -> int:
    seed, group_ref = int(argv[0]), argv[1]
    from equidouble.catalogue import load_group
    from equidouble.linalg import mat_rank_det_kernel
    from equidouble.modular import s_matrix_character_formula
    from equidouble.scalars import Cyclotomic, euler_phi

    rng = random.Random(seed)

    def operand(n: int) -> Cyclotomic:
        while True:
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(n))]
            if any(coeffs[1:]):
                return Cyclotomic(n, coeffs)

    pairs = [(operand(CONDUCTORS[i % 3]), operand(CONDUCTORS[i // 3 % 3])) for i in range(OPERANDS)]
    singles = [(a,) for a, _ in pairs]
    out = {
        "scalars.cyclotomic_mul.us": 1e6 * _median_per_op(lambda a, b: a * b, pairs, ROUNDS),
        "scalars.cyclotomic_inverse.us": 1e6 * _median_per_op(lambda a: a.inverse(), singles, ROUNDS),
    }
    ok = all(a * b * b.inverse() == a for a, b in pairs)

    matrix = s_matrix_character_formula(load_group(group_ref)).matrix
    times = []
    for _ in range(RANK_ROUNDS):
        start = time.perf_counter()
        result = mat_rank_det_kernel(matrix)
        times.append(time.perf_counter() - start)
    out["linalg.rank_det.ms"] = 1e3 * statistics.median(times)
    out["rank"] = result.rank
    json.dump(out, sys.stdout)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
