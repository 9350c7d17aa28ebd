"""matrices.lax_terms, the one builder of every pole-term Lax matrix, and the
split Casimirs of the Lax algebra check, against a reference that inverts
each group's Gram matrix densely over the rationals, on every side of the
classical-bosonic grid (three flavors) and of the cyclotomic grid; and the
Lax algebra check itself on the whole cyclotomic grid.

The reference states the invariant form and the twist itself: kappa is 1/2
on the gl_M^C origin's Pi_(s) groups and on sp_2N, 1 elsewhere, and only
the gl_M^C side mirrors each point term at -z_i by sigma(X) = -X^T."""

from fractions import Fraction

import pytest

from gaudual import matrices, presets
from gaudual.cyclotomic import lax_algebra_check
from gaudual.matrices import transpose
from helpers import build_instance

Q = Fraction


def kappa(side: str, group) -> Fraction:
    return Q(1, 2) if side == "sp2N" or (side, group) == ("glM-cyclotomic", "or") else Q(1)


def dense(entries, n: int) -> list[list[Fraction]]:
    m = [[Q(0)] * n for _ in range(n)]
    for r, c, v in entries:
        m[r][c] += v
    return m


def inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of a nonsingular rational matrix."""
    n = len(a)
    rows = [list(row) + [Q(int(r == c)) for c in range(n)] for r, row in enumerate(a)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def dense_duals(mats, scale: Fraction, n: int) -> list[list[list[Fraction]]]:
    """The dual basis of the matrices under scale tr(XY), as dense matrices:
    g*_k = sum_l (G^-1)_kl X_l for the Gram matrix G_kl = scale tr(X_k X_l)."""
    xs = [dense(m, n) for m in mats]
    gram = [[scale * sum(x[r][c] * y[c][r] for r in range(n) for c in range(n)) for y in xs]
            for x in xs]
    ginv = inverse(gram)
    return [[[sum(ginv[k][l] * xs[l][r][c] for l in range(len(xs))) for c in range(n)]
             for r in range(n)] for k in range(len(xs))]


def reference_lax(side) -> list[list[dict]]:
    """Entry (r, c): {(pole, order): the summed coefficient} of
    sum_g image(g) g* / (x - pole)^order, mirrored at -pole on gl_M^C."""
    n = side.size
    out = [[{} for _ in range(n)] for _ in range(n)]

    def put(r, c, key, img, coeff):
        if coeff:
            entry = out[r][c]
            entry[key] = entry[key] + img * coeff if key in entry else img * coeff

    groups: dict = {}
    for g in side.gens:
        group, depth, _, entries = side.matrix(g)
        groups.setdefault((group, depth), []).append((g, entries))
    for (group, depth), members in groups.items():
        location = side.poles.get(group)
        pole, order = (Q(0), 0) if location is None else (location, depth + 1)
        duals = dense_duals([m for _, m in members], kappa(side.name, group), n)
        for (g, _), dual in zip(members, duals):
            img = side.image(g)
            for r in range(n):
                for c in range(n):
                    put(r, c, (pole, order), img, dual[r][c])
                    if side.name == "glM-cyclotomic" and pole:
                        put(c, r, (-pole, order), img, (-1) ** order * dual[r][c])
    return [[{key: v for key, v in entry.items() if v} for entry in row] for row in out]


def summed(lax) -> list[list[dict]]:
    """A pole-term Lax matrix with the terms of each entry summed per pole."""
    out = []
    for row in lax:
        out.append([])
        for terms in row:
            entry: dict = {}
            for img, pole, order in terms:
                entry[pole, order] = entry[pole, order] + img if (pole, order) in entry else img
            out[-1].append({key: v for key, v in entry.items() if v})
    return out


def _grid(specs, name):
    return [pytest.param(spec, id=f"{name}-{k}") for k, spec in enumerate(specs)]


@pytest.mark.parametrize("spec", _grid(presets.classical_bosonic_grid(), "classical"))
@pytest.mark.parametrize("flavor", ["classical", "quantum", "fermionic"])
def test_gaudin_lax_matrices_match_the_dense_gram_reference(spec, flavor):
    """The gl_M side is read transposed, the gl_N side as built."""
    inst = build_instance(spec)
    glM, glN = (inst.side(name, flavor) for name in ("glM", "glN"))
    assert summed(inst.lax_glM(flavor)) == transpose(reference_lax(glM))
    assert summed(inst.lax_glN(flavor)) == reference_lax(glN)


@pytest.mark.parametrize("spec", _grid(presets.cyclotomic_grid(), "cyclotomic"))
def test_cyclotomic_lax_matrices_match_the_dense_gram_reference(spec):
    inst = build_instance(spec)
    assert summed(inst.lax_glM("classical")) == reference_lax(inst.glMC_side())
    assert summed(inst.lax_glN("classical")) == reference_lax(inst.sp_side())


def casimir(pairs, n: int) -> dict:
    """The nonzero entries of sum dual x g, both dense, as a two-leg matrix:
    entry (i n + k, j n + l) is the E_ij x E_kl part."""
    out: dict = {}
    for dual, g in pairs:
        for i, j, k, l in ((i, j, k, l) for i in range(n) for j in range(n)
                           for k in range(n) for l in range(n)):
            if dual[i][j] and g[k][l]:
                key = (i * n + k, j * n + l)
                out[key] = out.get(key, 0) + dual[i][j] * g[k][l]
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("spec", _grid(presets.cyclotomic_grid(), "cyclotomic"))
def test_r_matrix_casimirs_match_the_dense_gram_reference(spec):
    """The Casimirs of the E_ab (kappa 1) and of the Ebar_IJ (kappa 1/2) that
    the two r-matrices are built from."""
    inst = build_instance(spec)
    units = tuple(((a, b, 1),) for a in range(inst.M) for b in range(inst.M))
    ebar = tuple(inst.ebar_entries(I, J) for I, J in inst.I2())
    for mats, scale, n in ((units, Q(1), inst.M), (ebar, Q(1, 2), 2 * inst.N)):
        got = zip([dense([(r, c, v) for (r, c), v in d.items()], n)
                   for d in matrices._duals(mats, scale)], [dense(m, n) for m in mats])
        want = zip(dense_duals(mats, scale, n), [dense(m, n) for m in mats])
        assert casimir(got, n) == casimir(want, n)


@pytest.mark.parametrize("spec", _grid(presets.cyclotomic_grid(), "cyclotomic"))
@pytest.mark.parametrize("which", ["cyclotomic-glM", "sp2N"])
def test_lax_algebra_holds_on_the_cyclotomic_grid(spec, which):
    assert lax_algebra_check(build_instance(spec), which)["status"] == "pass"
