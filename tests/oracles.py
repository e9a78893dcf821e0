"""Reference oracles that only the tests use: brute-force subgroups, binary form factoring."""

from trigonal.errors import TooLarge
from trigonal.fields import embed_poly, make_extension
from trigonal.polyring import BinaryForm, factorize, roots
from trigonal.subgroups import TractableSubgroup, _quad_from_pair, normalize_quadratic, splitting_degree


def _pairings(items):
    """All partitions of items into unordered pairs."""
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        pair = (first, items[i])
        rest = items[1:i] + items[i + 1 :]
        for more in _pairings(rest):
            yield [pair] + more


def brute_force_tractable(H):
    """Test all 105 pair-partitions of the Weierstrass points for Galois stability."""
    L = splitting_degree(H)
    if L > 15:
        raise TooLarge(f"splitting field degree {L} > 15")
    E = make_extension(H.field.p, L)
    pts = []
    if H.form.v_multiplicity:
        pts.append(None)
    pts.extend(roots(embed_poly(H.F, H.field, E)))
    assert len(pts) == 8, "curve must have 8 distinct Weierstrass points"

    def frob_pt(r):
        return None if r is None else E.frobenius_power(r, 1)

    out = []
    for pairing in _pairings(pts):
        quads = [_quad_from_pair(E, r1, r2) for r1, r2 in pairing]
        keyset = frozenset(normalize_quadratic(q).encode() for q in quads)
        conj = [_quad_from_pair(E, frob_pt(r1), frob_pt(r2)) for r1, r2 in pairing]
        conjset = frozenset(normalize_quadratic(q).encode() for q in conj)
        if keyset == conjset:
            out.append(TractableSubgroup.from_quads(quads))
    out.sort(key=lambda s: s.key())
    return out


def factor_form(form: BinaryForm):
    """(scalar, [(irreducible BinaryForm normalized, multiplicity)]).

    The affine part is factored with the univariate routine; the factor v
    (coeffs (1, 0, ..., 0) of degree 1) carries the v-multiplicity.
    """
    f = form.field
    aff = form.affine()
    out = []
    vm = form.v_multiplicity
    if vm:
        out.append((BinaryForm(f, 1, (f.one, f.zero)), vm))
    if aff.degree >= 1:
        lc, factors = factorize(aff)
        for g, m in factors:
            out.append((BinaryForm.from_affine(g, g.degree), m))
    else:
        lc = aff.c[0] if aff.c else f.one
    return lc, out
