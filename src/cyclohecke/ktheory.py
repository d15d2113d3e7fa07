"""Fixed-point model of the equivariant K-theory of the Gieseker space.

The space enters only through its torus fixed points (multipartitions) and
the torus characters of the tautological bundle there. The two sides of the
main identity are produced by deliberately independent code paths:

* geometric: fill each Young diagram with the monomial basis of the quotient
  ring it cuts out and read off torus weights from monomial exponents;
* algebraic: evaluate symmetric functions on the Jucys-Murphy eigenvalue
  multiset coming from node contents.

Both sides are plain lists that give each weight q^a Q_k as the pair
(a, k). The rows e_1..e_n and det_inv are functions of the weight multiset
that the e-row determines, so the identity at a fixed point is the equality
of the two sorted weight lists; Laurent rows are built only for tables and
witnesses, by _row, which refuses a weight that is not a pair (a, k) with
1 <= k <= r on either side.
"""

from __future__ import annotations

import csv
import io
import json
import time
from functools import cache
from types import SimpleNamespace

from .combinatorics import (
    block_partition,
    enumerate_multipartitions,
    jm_eigenvalues,
    render_multipartition,
)
from .center import (
    IdempotentSplitError,
    central_idempotents,
    specialized_elementary_characters,
)
from .hecke import AlgebraContext
from .reports import VerificationReport
from .rings import (
    CyclotomicDomain,
    LaurentPoly,
    elementary_symmetric,
    reduce_parameters,
)


def fixed_point_character(mp, r=None):
    """Weights at the fixed point of a multipartition, computed from the
    diagram geometry: box (i, j) of component k carries the quotient-ring
    monomial x^(i-1) y^(j-1) and the torus scales it by q^(j-i) Q_k, the
    pair (j - i, k).

    Deliberately does not touch the node/content code path. The list is
    fresh; the per-component ones are cached, keyed by each component as a
    tuple, so any sequence of row lengths works.
    """
    if r is not None and len(mp) != r:
        raise ValueError("component count mismatch")
    out = []
    for k, part in enumerate(mp, start=1):
        out += _box_weights(tuple(part), k)
    return out


@cache
def _box_weights(part, k):
    """The pairs (j - i, k) of the boxes (i, j) of partition part as
    component k, read from its row lengths."""
    return [(v - u, k) for u, row_len in enumerate(part)
            for v in range(row_len)]


class RestrictionTable:
    """Restrictions of the tautological classes e_1..e_n and the inverse
    determinant class at every fixed point, as exact Laurent polynomials."""

    def __init__(self, n, r, rows, entries):
        self.n, self.r = n, r
        self.rows = rows  # multipartitions in canonical order
        self.entries = entries  # per row: [e_1, ..., e_n, det_inv]

    @property
    def column_labels(self):
        return [f"e{i}" for i in range(1, self.n + 1)] + ["det_inv"]

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["multipartition"] + self.column_labels)
        for mp, row in zip(self.rows, self.entries):
            writer.writerow([render_multipartition(mp)]
                            + [p.render() for p in row])
        return buf.getvalue()

    def to_json(self):
        return json.dumps({
            "n": self.n,
            "r": self.r,
            "columns": self.column_labels,
            "rows": [
                {
                    "multipartition": render_multipartition(mp),
                    "entries": [p.render() for p in row],
                }
                for mp, row in zip(self.rows, self.entries)
            ],
        }, sort_keys=True, separators=(",", ":"))


def _row(weights, n, r):
    """e_1..e_n (e_k = 0 past the list's length) and det_inv of a list of
    weights (a, k) as Laurent polynomials in q, Q_1..Q_r; a colour k
    outside 1..r raises ValueError."""
    monomials, det = [], [0] * (1 + r)
    for a, k in weights:
        if not 0 < k <= r:
            raise ValueError(f"colour {k} outside 1..{r}")
        exps = [0] * (1 + r)
        exps[0], exps[k] = a, 1
        monomials.append(LaurentPoly.monomial(1, exps))
        det[0] -= a
        det[k] -= 1
    row = elementary_symmetric(monomials, LaurentPoly.const(1, 1 + r))[1:]
    row = (row + [LaurentPoly.zero(1 + r)] * n)[:n]
    return row + [LaurentPoly.monomial(1, det)]


def restriction_table(n, r):
    """The full fixed-point restriction table of (n, r), geometric side."""
    rows = enumerate_multipartitions(n, r)
    entries = [_row(fixed_point_character(mp, r), n, r) for mp in rows]
    return RestrictionTable(n, r, rows, entries)


def verify_main_theorem(n, r):
    """Exact equality of the geometric restriction table (diagram weights)
    and the algebraic one (elementary symmetric functions of Jucys-Murphy
    eigenvalues), entry by entry, including the inverse determinant column.
    A row is equal exactly when the two weight multisets are (see
    docs/reports.md), so a fixed point whose two lists are equal passes;
    only lists that differ build the rows, which settle the verdict and
    name the unequal columns.
    """
    start = time.perf_counter()
    labels = [f"e{i}" for i in range(1, n + 1)] + ["det_inv"]
    mps = enumerate_multipartitions(n, r)
    witnesses = []
    for mp in mps:
        alg_weights = jm_eigenvalues(mp, r)
        geo_weights = fixed_point_character(mp, r)
        if geo_weights == alg_weights:
            continue
        for label, geom, alg in zip(labels, _row(geo_weights, n, r),
                                    _row(alg_weights, n, r)):
            if geom != alg:
                witnesses.append({
                    "multipartition": render_multipartition(mp),
                    "column": label,
                    "geometric": geom.render(),
                    "algebraic": alg.render(),
                })
    return VerificationReport(
        check="main_theorem_identity",
        params={"n": n, "r": r, "rows": len(mps), "columns": len(labels)},
        witnesses=witnesses,
        duration=time.perf_counter() - start,
    )


def _class_spectra(classes, mps, char_rows):
    """The residue class of each exact spectrum row, and the witnesses of
    the two class checks: one row per class, distinct rows for distinct
    classes."""
    mp_index = {mp: i for i, mp in enumerate(mps)}
    class_spectra, witnesses = {}, []
    for residue, members in classes.items():
        found = {tuple(char_rows[mp_index[mp]]) for mp in members}
        if len(found) != 1:
            witnesses.append({
                "reason": "class spectra not constant",
                "residue": str(residue),
            })
            continue
        class_spectra[found.pop()] = residue
    if len(class_spectra) != len(classes) and not witnesses:
        witnesses.append({
            "reason": "distinct residue classes share a spectrum",
            "classes": len(classes), "spectra": len(class_spectra),
        })
    return class_spectra, witnesses


def _prime_field_blocks(n, r, q_val, Q_vals, rows):
    """The blocks of central_idempotents over the prime field of
    rings.reduce_parameters, split along the images of rows, the distinct
    exact spectrum rows: (image, blocks), image the reduction and blocks the
    (reduced spectrum, image dimension) pairs in block order. None when
    there is no prime, when two rows meet mod p or when the split fails
    over F_p (see docs/reports.md). The parameters are roots of unity,
    units with denominator 1, so reduction never refuses them. The context
    certifies its own product at build; a failure raises EngineError."""
    reduced = reduce_parameters(q_val, Q_vals)
    if reduced is None:
        return None
    domain, image, q_p, Qs_p = reduced
    classes = [tuple(map(image, row)) for row in rows]
    if len(set(classes)) != len(rows):
        return None
    ctx = AlgebraContext(n, r, domain, q_p, Qs_p)
    try:
        _, spectra, image_dims = central_idempotents(ctx, classes)
    except IdempotentSplitError:
        return None
    return image, list(zip(spectra, image_dims))


def verify_blocks(n, r, modulus, charge, *, seed=0):
    """Block decomposition at a root of unity against the residue-vector
    classes: counts must agree, blocks must match classes through the
    spectra of the Jucys-Murphy center, and per block the dimension of the
    Jucys-Murphy center image must equal the class size.

    The spectrum rows and the class checks are exact. The blocks are split
    over a prime field first, and a pass there is the result; any other
    outcome reruns the split over the cyclotomic field, so every failed
    report comes from exact arithmetic."""
    start = time.perf_counter()
    charge = tuple(charge)
    classes = block_partition(n, r, modulus, charge)
    domain = CyclotomicDomain(modulus)
    q_val = domain.zeta(1)
    Q_vals = [domain.zeta(s) for s in charge]
    params = {
        "n": n, "r": r, "ell": modulus, "charge": list(charge),
        "classes": len(classes),
    }

    def report(params, witnesses):
        return VerificationReport(
            check="block_decomposition", params=params,
            witnesses=witnesses, seed=seed,
            duration=time.perf_counter() - start)

    # the exact rows read only the parameters: no context over the field
    mps, char_rows = specialized_elementary_characters(SimpleNamespace(
        n=n, r=r, domain=domain, q_val=q_val, Q_vals=Q_vals))
    rows = list(dict.fromkeys(map(tuple, char_rows)))
    class_spectra, class_witnesses = _class_spectra(classes, mps, char_rows)

    def judge(blocks, residue_of):
        """The report of the blocks, (spectrum, image dimension) pairs."""
        out = dict(params, blocks=len(blocks))
        witnesses = list(class_witnesses)
        if len(blocks) != len(classes):
            witnesses.append({
                "reason": "block count mismatch",
                "residue_classes": [str(k) for k in classes],
                "blocks": len(blocks),
            })
            return report(out, witnesses)
        block_info = {}  # residue -> image dimension of its block
        for spectrum, image_dim in blocks:
            residue = residue_of.get(spectrum)
            if residue is None or residue in block_info:
                witnesses.append({
                    "reason": "block does not match a residue class",
                    "spectrum": [domain.render(v) for v in spectrum],
                })
                continue
            block_info[residue] = image_dim
        if not witnesses:
            per_block = []
            for residue, image_dim in block_info.items():
                class_size = len(classes[residue])
                per_block.append({
                    "residue": str(residue),
                    "jm_image_dim": image_dim,
                    "class_size": class_size,
                })
                if image_dim != class_size:
                    witnesses.append({
                        "reason": "jm-center image dimension != class size",
                        "residue": str(residue),
                        "jm_image_dim": image_dim,
                        "class_size": class_size,
                    })
            out["per_block"] = per_block
        return report(out, witnesses)

    if not class_witnesses and (
            split := _prime_field_blocks(n, r, q_val, Q_vals, rows)):
        image, blocks = split
        reduced = {tuple(map(image, s)): k for s, k in class_spectra.items()}
        if (found := judge(blocks, reduced)).passed:
            return found
    ctx = AlgebraContext(n, r, domain, q_val, Q_vals)
    try:
        _, spectra, image_dims = central_idempotents(ctx, rows)
    except IdempotentSplitError as exc:
        # no decomposition to compare with the classes: not verified
        return report(params, class_witnesses + [{
            "reason": "idempotent splitting failed", "error": str(exc)}])
    return judge(list(zip(spectra, image_dims)), class_spectra)
