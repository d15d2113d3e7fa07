"""Independent global identities tying the engine to combinatorial data.

These go beyond the per-operation oracles: the regular-representation trace
identity validates the cached multiplication matrices in one shot against
standard-tableaux counts and character values computed without the engine.
"""

from fractions import Fraction

import pytest

from cyclohecke.center import specialized_elementary_characters
from cyclohecke.combinatorics import count_standard_tableaux
from cyclohecke.ktheory import verify_blocks


class TestRegularTraceIdentity:
    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 1)])
    def test_central_trace_equals_weighted_characters(self, sampled_ctxs,
                                                      n, r):
        # at semisimple parameters the algebra is a product of matrix rings
        # of sizes #SYT(shape), so the regular trace of a central element is
        # sum over shapes of (#SYT)^2 times its character value
        ctx = sampled_ctxs(n, r)[0]
        mps, rows = specialized_elementary_characters(ctx)
        for k in range(1, n + 1):
            ek = ctx.symmetric_jm(k)
            cols = [(ek * ctx.basis_element(j)).terms
                    for j in range(ctx.dim)]
            trace = ctx.domain.zero
            for j in range(ctx.dim):
                trace = trace + cols[j].get(j, ctx.domain.zero)
            expected = ctx.domain.zero
            for mp, row in zip(mps, rows):
                weight = ctx.domain.from_int(count_standard_tableaux(mp) ** 2)
                expected = expected + weight * row[k - 1]
            assert ctx.domain.is_zero(trace - expected), (n, r, k)


class TestGramSymmetry:
    @pytest.mark.parametrize("n,r", [(2, 2), (3, 1)])
    def test_full_trace_gram_is_symmetric(self, rational_ctx, n, r):
        # complete check of tau(b_i b_j) = tau(b_j b_i) over all basis pairs
        Qs = [Fraction(2 + 3 * k) for k in range(r)]
        ctx = rational_ctx(n, r, Fraction(3), Qs)
        for i in range(ctx.dim):
            bi = ctx.basis_element(i)
            for j in range(i + 1, ctx.dim):
                bj = ctx.basis_element(j)
                assert (bi * bj).tau() == (bj * bi).tau()


class TestBlocksKnownRegimes:
    def test_single_block_n4_level_one(self):
        # every partition of 4 has residue vector (2, 2) at ell = 2
        rep = verify_blocks(4, 1, 2, (0,))
        assert rep.passed
        assert rep.params["blocks"] == 1
        assert rep.params["per_block"][0]["class_size"] == 5
        assert rep.params["per_block"][0]["jm_image_dim"] == 5

    def test_single_block_at_third_root_of_unity(self):
        # q = zeta_3 with phi(3) = 2: the three partitions of 3 form one
        # residue class, so the spectra give a single block
        rep = verify_blocks(3, 1, 3, (0,))
        assert rep.passed
        assert rep.params["blocks"] == 1
        assert rep.params["per_block"][0]["class_size"] == 3
