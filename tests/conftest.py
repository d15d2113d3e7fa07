import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=50)
settings.load_profile("ci")

from fractions import Fraction

from cyclohecke.center import specialized_elementary_characters
from cyclohecke.hecke import AlgebraContext, AlgebraElement, symbolic_context
from cyclohecke.rings import RationalDomain
from cyclohecke.suites import generic_contexts

_SYMBOLIC_CACHE = {}


def _random_element(ctx, rng, max_terms=3, coeff_range=5):
    """A random sparse element: up to max_terms words with small integer
    coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randrange(ctx.dim)
        coeff = ctx.domain.from_int(rng.randint(-coeff_range, coeff_range))
        terms[k] = terms.get(k, ctx.domain.zero) + coeff
    return AlgebraElement(ctx, terms)


def literal_L(ctx, i, vec):
    """L_i vec by the definition L_i = q^-1 T_{i-1} L_{i-1} T_{i-1},
    recursing down to the stored L_1 matrix: the tests' own statement of the
    definition, independent of the context's."""
    if i == 1:
        return ctx.domain.apply_cols(ctx._matrices[("L", 1)], vec)
    t_mat = ctx._matrices[("T", i - 2)]
    inner = literal_L(ctx, i - 1, ctx.domain.apply_cols(t_mat, vec))
    return ctx.domain.scale(ctx.domain.apply_cols(t_mat, inner), ctx.q_inv)


def spectrum_rows(ctx):
    """The classes central_idempotents splits along: the distinct rows of
    scalars of e_1..e_n on the cell modules of ctx, as tuples in order of
    first appearance."""
    _, rows = specialized_elementary_characters(ctx)
    return list(dict.fromkeys(map(tuple, rows)))


def add_T1_to_e1(monkeypatch):
    """Fault: the e_k sweep returns e_1 v + T_1 v in place of e_1 v, so the
    generator e_1 of the JM-center span is no longer central."""
    sweep = AlgebraContext.apply_symmetric_jm

    def with_T1(ctx, vec):
        row = sweep(ctx, vec)
        d = ctx.domain
        d.add_scaled(row[0], d.apply_cols(ctx._matrices[("T", 0)], vec))
        return row

    monkeypatch.setattr(AlgebraContext, "apply_symmetric_jm", with_T1)


_SAMPLED_CACHE = {}


@pytest.fixture(scope="session")
def symbolic_ctx():
    """Session-cached fully symbolic contexts (coefficients are Laurent
    polynomials in q, Q_i)."""
    def get(n, r):
        if (n, r) not in _SYMBOLIC_CACHE:
            _SYMBOLIC_CACHE[(n, r)] = symbolic_context(n, r)
        return _SYMBOLIC_CACHE[(n, r)]
    return get


@pytest.fixture(scope="session")
def sampled_ctxs():
    """Session-cached random rational specializations (3 per (n, r), seed 0)."""
    def get(n, r, samples=3, seed=0):
        key = (n, r, samples, seed)
        if key not in _SAMPLED_CACHE:
            _SAMPLED_CACHE[key] = generic_contexts(n, r, seed, samples)
        return _SAMPLED_CACHE[key]
    return get


@pytest.fixture(scope="session")
def rational_ctx():
    """Session-cached contexts at explicit rational parameters."""
    cache = {}

    def get(n, r, q, Qs):
        key = (n, r, Fraction(q), tuple(Fraction(Q) for Q in Qs))
        if key not in cache:
            cache[key] = AlgebraContext(
                n, r, RationalDomain(), Fraction(q),
                [Fraction(Q) for Q in Qs])
        return cache[key]
    return get
