"""Built-in instance grids.

The acceptance grids instantiate marked points from the fixed rational
pools {1, 2, 3} (z side) and {5, 7, 11} (lambda side); divisor shapes are
partitions of the degree with bounded parts, one instance per shape pair.

Every grid comes from one of two builders: the Gaudin grids relabel the
specs of classical_bosonic_grid, and every cyclotomic-model spec is built
by _cyclotomic, which derives N and the lambda points from the rest.
"""

from __future__ import annotations

Z_POOL = ["1", "2", "3"]
LAM_POOL = ["5", "7", "11"]


def partitions(n: int, max_part: int) -> list[list[int]]:
    """Partitions of n with parts <= max_part, descending parts."""
    if n == 0:
        return [[]]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append([first] + rest)
    return out


def divisor_shapes(degree: int, max_degree: int, pool: list[str]) -> list[list]:
    return [[[pool[k], tau] for k, tau in enumerate(parts)]
            for parts in partitions(degree, max_degree)]


def classical_bosonic_grid(max_mn: int = 3, max_degree: int = 3) -> list[dict]:
    out = []
    for M in range(1, max_mn + 1):
        for N in range(1, max_mn + 1):
            for dz in divisor_shapes(N, max_degree, Z_POOL):
                for dl in divisor_shapes(M, max_degree, LAM_POOL):
                    out.append(
                        {
                            "kind": "classical-bosonic",
                            "M": M,
                            "N": N,
                            "divisor": dz,
                            "dual_divisor": dl,
                        }
                    )
    return out


def fermionic_grid() -> list[dict]:
    return [dict(spec, kind="classical-fermionic") for spec in classical_bosonic_grid(2, 3)]


def quantum_grid() -> list[dict]:
    return [dict(spec, kind="quantum-bosonic") for spec in classical_bosonic_grid(2, 2)]


def homomorphism_grid() -> list[dict]:
    """Every realization flavor over the full M, N <= 3, degree <= 3 grid,
    plus the cyclotomic maps over the cyclotomic grid."""
    out = [dict(spec, kind="homomorphism", realization=flavor)
           for flavor in ("classical-bosonic", "classical-fermionic", "quantum-bosonic")
           for spec in classical_bosonic_grid()]
    # the symbolic-mu spec without its options is the M = N = 2, mu = 0 one,
    # so this part holds that spec twice
    for spec in cyclotomic_grid():
        spec = dict(spec, kind="homomorphism", realization="cyclotomic")
        spec.pop("options", None)
        out.append(spec)
    return out


def mutation_instances() -> list[dict]:
    """One deliberately broken realization per realization map; these must fail."""
    base = {
        "M": 2,
        "N": 2,
        "divisor": [["1", 1], ["2", 1]],
        "dual_divisor": [["5", 1], ["7", 1]],
    }
    out = [dict(base, kind="homomorphism", realization=realization,
                options={"mutation": mutation, "expect": "fail"})
           for realization, mutation in [
               ("classical-bosonic", "flip-sign"),
               ("classical-bosonic", "range-up"),
               ("classical-fermionic", "flip-sign"),
               ("quantum-bosonic", "flip-sign"),
               ("quantum-bosonic", "range-up"),
           ]]
    out.append(_cyclotomic(2, 2, [], "-1", kind="homomorphism", realization="cyclotomic",
                           options={"mutation": "y-sign", "expect": "fail"}))
    return out


def commutativity_grid() -> list[dict]:
    return ([dict(spec, kind="commutativity", flavor="classical")
             for spec in classical_bosonic_grid()]
            + [dict(spec, kind="commutativity", flavor="quantum") for spec in quantum_grid()])


def _cyclotomic(M: int, tau0: int, divisor: list, mu: str, **fields) -> dict:
    """A cyclotomic-model spec: N = tau0 + sum tau_i, and the lambda points
    are the first M of LAM_POOL; fields add to or override the rest."""
    return {
        "kind": "cyclotomic",
        "M": M,
        "N": tau0 + sum(tau for _, tau in divisor),
        "tau0": tau0,
        "divisor": divisor,
        "lambda_points": LAM_POOL[:M],
        "mu": mu,
        **fields,
    }


# one point z_1 = 1 of Takiff degree 1
_ONE_POINT = [[Z_POOL[0], 1]]


def cyclotomic_grid() -> list[dict]:
    """(M, N) in {1,2}^2, tau0 in {1,2} where the degree constraint allows,
    mu in {0, -1, 3/2}, then M = N = 2 with symbolic mu."""
    out = [_cyclotomic(M, tau0, pts, mu)
           for M in (1, 2)
           for tau0, pts in ((1, []), (1, _ONE_POINT), (2, []))  # N = 1, 2, 2
           for mu in ("0", "-1", "3/2")]
    out.append(_cyclotomic(2, 1, _ONE_POINT, "0", options={"symbolic_mu": True}))
    return out


def neumann_instances(M: int | None = None) -> list[dict]:
    omegas = {2: ["1", "2"], 3: ["1", "2", "3"]}
    sizes = [M] if M else [2, 3]
    return [{"kind": "neumann", "M": m, "omega": omegas[m]} for m in sizes]


def negative_manin_instance() -> dict:
    return _cyclotomic(2, 1, _ONE_POINT, "-1",
                       options={"quantum_candidate": True, "expect": "fail"})


def lax_algebra_instances() -> list[dict]:
    return [_cyclotomic(M, 1, pts, mu, kind="lax-algebra", which=which)
            for M, pts, mu, which in ((1, [], "-1", "cyclotomic-glM"), (1, [], "-1", "sp2N"),
                                      (2, _ONE_POINT, "3/2", "cyclotomic-glM"))]


PRESETS = {
    "classical-grid": classical_bosonic_grid,
    "fermionic-grid": fermionic_grid,
    "quantum-grid": quantum_grid,
    "homomorphism-grid": homomorphism_grid,
    "mutation-suite": mutation_instances,
    "commutativity-grid": commutativity_grid,
    "cyclotomic-grid": cyclotomic_grid,
    "neumann": neumann_instances,
    "lax-algebra": lax_algebra_instances,
}


def paper_core() -> list[dict]:
    """The full acceptance grid: criteria 1-8."""
    out = []
    out += classical_bosonic_grid()
    out += fermionic_grid()
    out += quantum_grid()
    out += homomorphism_grid()
    out += mutation_instances()
    out += commutativity_grid()
    out += cyclotomic_grid()
    out += neumann_instances()
    out += [negative_manin_instance()]
    out += lax_algebra_instances()
    return out


PRESETS["paper-core"] = paper_core
