"""Benchmark workloads: the CLI invocations each one runs for a seed, and
the invariants its reports must satisfy.

The invariants are recomputed here from first principles (partition
counts, residue classes) and never taken from the package under test.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# independent combinatorics
# ---------------------------------------------------------------------------

def partitions(n, max_part=None):
    """Partitions of n as weakly decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def multipartition_count(n, r):
    """Number of r-multipartitions of n: the x^n coefficient of P(x)^r."""
    p = [sum(1 for _ in partitions(k)) for k in range(n + 1)]
    series = [1] + [0] * n
    for _ in range(r):
        series = [sum(series[i] * p[k - i] for i in range(k + 1))
                  for k in range(n + 1)]
    return series[n]


def residue_class_sizes(n, ell):
    """Sorted sizes of the classes of partitions of n that share the
    multiset of node residues (column - row) mod ell, at charge 0."""
    classes = Counter()
    for lam in partitions(n):
        residues = sorted((col - row) % ell
                          for row, length in enumerate(lam)
                          for col in range(length))
        classes[tuple(residues)] += 1
    return sorted(classes.values())


def main_identity_pairs(budget, n_cap=8, r_cap=6):
    """(n, r) with r^n * n! <= budget under the CLI's caps on n and r."""
    return [(n, r) for r in range(1, r_cap + 1) for n in range(n_cap + 1)
            if r ** n * math.factorial(n) <= budget]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """``invocations(seed)`` gives the CLI argv lists run in order in one
    process; ``invariants(reports, seed)`` takes the parsed JSON reports of
    each invocation and returns (label, ok) pairs. Why each workload was
    chosen is recorded in BENCHMARK.json and bench/README.md."""

    name: str
    invocations: Callable[[int], list]
    invariants: Callable[[list, int], list]


MAIN_BUDGET = 100_000


def _main_identity_invocations(seed):
    return [["verify-main", "--budget", str(MAIN_BUDGET)]]


def _main_identity_invariants(per_invocation, seed):
    (reports,) = per_invocation
    pairs = main_identity_pairs(MAIN_BUDGET)
    got = [(rep["params"]["n"], rep["params"]["r"]) for rep in reports]
    checks = [("one report per pair in the budget", got == pairs)]
    for rep in reports:
        n, r = rep["params"]["n"], rep["params"]["r"]
        checks.append((f"rows at ({n},{r})",
                       rep["params"]["rows"] == multipartition_count(n, r)))
    return checks


HILB_N = 4
HILB_Q_COUNT = 3


def hilb_q_values(seed):
    """Distinct rational q outside {0, 1, -1}: integers 2..9 and their
    reciprocals, either sign, drawn from the seed."""
    pool = [f"{sign}{k}" for sign in ("", "-") for k in range(2, 10)]
    pool += [f"{sign}1/{k}" for sign in ("", "-") for k in range(2, 10)]
    return random.Random(seed).sample(pool, HILB_Q_COUNT)


def _hilb_invocations(seed):
    return [["--seed", str(seed), "hilb", "--n", str(HILB_N),
             "--q-values=" + ",".join(hilb_q_values(seed))]]


def _hilb_invariants(per_invocation, seed):
    ((report,),) = per_invocation
    p_n = multipartition_count(HILB_N, 1)
    results = report["params"]["results"]
    checks = [("one result per q",
               [res["q"] for res in results] == hilb_q_values(seed))]
    for res in results:
        checks.append((f"dim_center at q={res['q']}",
                       res["dim_center"] == p_n))
        checks.append((f"dim_jm_center at q={res['q']}",
                       res["dim_jm_center"] == p_n))
    return checks


CENTER_N, CENTER_R, CENTER_SAMPLES = 2, 4, 1


def _center_invocations(seed):
    return [["--samples", str(CENTER_SAMPLES), "--seed", str(seed), "center",
             "--n", str(CENTER_N), "--r", str(CENTER_R),
             "--q", "generic", "--Q", ",".join(["generic"] * CENTER_R)]]


def _center_invariants(per_invocation, seed):
    ((report,),) = per_invocation
    expected = multipartition_count(CENTER_N, CENTER_R)
    results = report["params"]["results"]
    checks = [("one result per sample", len(results) == CENTER_SAMPLES)]
    for i, res in enumerate(results):
        checks.append((f"dim_center sample {i}",
                       res["dim_center"] == expected))
        checks.append((f"dim_jm_center sample {i}",
                       res["dim_jm_center"] == expected))
        checks.append((f"jm span not capped sample {i}",
                       res["jm_span_capped"] is False))
    return checks


BLOCKS_CASES = [(3, 2), (3, 3)]  # (n, ell) at r = 1, charge 0


def _blocks_invocations(seed):
    return [["--seed", str(seed), "blocks", "--n", str(n), "--r", "1",
             "--ell", str(ell), "--charge", "0"] for n, ell in BLOCKS_CASES]


def _blocks_invariants(per_invocation, seed):
    checks = []
    for (n, ell), (report,) in zip(BLOCKS_CASES, per_invocation):
        params = report["params"]
        sizes = residue_class_sizes(n, ell)
        per_block = params.get("per_block", [])
        where = f"(n={n}, ell={ell})"
        checks.append((f"classes {where}", params["classes"] == len(sizes)))
        checks.append((f"blocks == classes {where}",
                       params["blocks"] == params["classes"]))
        checks.append((f"class sizes {where}",
                       sorted(b["class_size"] for b in per_block) == sizes))
        for block in per_block:
            checks.append((f"jm_image_dim {where} {block['residue']}",
                           block["jm_image_dim"] == block["class_size"]))
    return checks


WORKLOADS = {w.name: w for w in [
    Workload("main-identity", _main_identity_invocations, _main_identity_invariants),
    Workload("hilb-n4", _hilb_invocations, _hilb_invariants),
    Workload("center-r4", _center_invocations, _center_invariants),
    Workload("blocks", _blocks_invocations, _blocks_invariants),
]}
