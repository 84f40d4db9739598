"""Singularity conditions at point configurations, in exact arithmetic.

Requiring a degree-d form to be singular at a point imposes n+1 linear
conditions (one per partial derivative). This module builds those condition
matrices, computes their ranks and kernels, compares the two degreewise
squares of a point ideal (products of ideal elements versus order-two
vanishing), and packages the randomized verification of the codimension
stabilization at degree 2N-1 together with the collinear sharpness probe.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import prod

from .linalg import ExactMatrix
from .monomials import enumerate_monomials, monomial_index
from .params import ParameterTriple, coefficient_space_dim
from .points import (
    PointConfiguration,
    collinear_configuration,
    random_configuration,
    random_general_position_configuration,
)


class StabilizationError(RuntimeError):
    """A scan failed to reach the expected stable value within its degree budget."""


def _power_table(coord: int, d: int) -> list[int]:
    pows = [1] * (d + 1)
    for e in range(1, d + 1):
        pows[e] = pows[e - 1] * coord
    return pows


def singularity_matrix(d: int, config: PointConfiguration) -> ExactMatrix:
    """Matrix of the conditions 'all partial derivatives vanish at every point'.

    One row per (point, partial derivative) pair, one column per degree-d
    monomial in graded-lex order; the entry is the derivative of the column
    monomial evaluated at the normal form of the row point, so every entry is
    an integer. The kernel is the degree-d part of the forms vanishing to
    order >= 2 at each configuration point, so the rank is the codimension of
    that space inside all degree-d forms.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    n = config.dimension
    mons = enumerate_monomials(d, n)
    rows = []
    for point in config.integer_points:
        pows = [_power_table(c, d) for c in point]
        for i in range(n + 1):
            row = []
            for e in mons:
                ei = e[i]
                if ei == 0:
                    row.append(0)
                    continue
                value = ei
                for v, ev in enumerate(e):
                    value = value * pows[v][ev - 1 if v == i else ev]
                row.append(value)
            rows.append(row)
    return ExactMatrix.from_rows(rows, len(mons))


def codimension(d: int, config: PointConfiguration) -> int:
    """Number of independent conditions the singularities impose in degree d."""
    return singularity_matrix(d, config).rank()


def symbolic_square_dim(d: int, config: PointConfiguration) -> int:
    """Dimension of the degree-d forms vanishing to order >= 2 at every point."""
    return coefficient_space_dim(d, config.dimension) - codimension(d, config)


def symbolic_square_basis(d: int, config: PointConfiguration) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of the order-two vanishing forms in degree d."""
    return singularity_matrix(d, config).kernel_basis()


def evaluation_matrix(e: int, config: PointConfiguration) -> ExactMatrix:
    """N x comb(e+n, n) matrix of monomial values at the points' normal forms."""
    mons = enumerate_monomials(e, config.dimension)
    rows = []
    for point in config.integer_points:
        pows = [_power_table(c, e) for c in point]
        rows.append([prod(p[k] for p, k in zip(pows, exps)) for exps in mons])
    return ExactMatrix.from_rows(rows, len(mons))


def ideal_degree_part(e: int, config: PointConfiguration) -> tuple[tuple[int, ...], ...]:
    """Basis of the degree-e forms vanishing (to first order) at every point."""
    if e < 1:
        raise ValueError(f"degree must be >= 1, got {e}")
    return evaluation_matrix(e, config).kernel_basis()


def ordinary_square_dim(d: int, config: PointConfiguration) -> int:
    """Dimension of the span of products g*h with g, h vanishing at all points.

    g runs over degree a and h over degree d-a for every split 1 <= a <= d-1;
    since the ideal of the points is generated in positive degrees, this span
    is the full degree-d part of its square.
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    n = config.dimension
    index = monomial_index(d, n)
    n_cols = len(index)
    bases = {
        e: (ideal_degree_part(e, config), enumerate_monomials(e, n))
        for e in range(1, d)
    }
    products: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for a in range(1, d // 2 + 1):
        b = d - a
        basis_a, mons_a = bases[a]
        basis_b, mons_b = bases[b]
        for g in basis_a:
            for h in basis_b:
                vec = [0] * n_cols
                for ia, ga in enumerate(g):
                    if not ga:
                        continue
                    ea = mons_a[ia]
                    for ib, hb in enumerate(h):
                        if not hb:
                            continue
                        eb = mons_b[ib]
                        col = index[tuple(x + y for x, y in zip(ea, eb))]
                        vec[col] += ga * hb
                key = tuple(vec)
                if key not in seen:
                    seen.add(key)
                    products.append(key)
    if not products:
        return 0
    # I^2 lies inside I^(2), so the rank is at most dim I^(2)_d = n_cols minus
    # the codimension; the modular rank never exceeds the codimension, so
    # subtracting it keeps the bound proven without an exact rank.
    upper = n_cols - singularity_matrix(d, config).modular_rank()
    return ExactMatrix.from_rows(products, n_cols).rank(upper)


def hilbert_function(d: int, config: PointConfiguration, mode: str = "symbolic") -> int:
    """Codimension of the chosen square of the point ideal in degree d.

    'symbolic' counts conditions for order-two vanishing (the rank of the
    singularity matrix); 'ordinary' counts the complement of the degreewise
    product span. Both stabilize at N(n+1) for d >= 2N-1; they can differ
    below 2N and any such disagreement is data, not an error.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if mode == "symbolic":
        return codimension(d, config)
    if mode == "ordinary":
        square = ordinary_square_dim(d, config) if d >= 2 else 0
        return coefficient_space_dim(d, config.dimension) - square
    raise ValueError(f"mode must be 'symbolic' or 'ordinary', got {mode!r}")


# --- randomized verification -------------------------------------------------


def derive_trial_seeds(seed: int, trials: int) -> list[int]:
    """Per-trial seeds drawn once from the master seed.

    Derivation is sequential and up front, so trials can then run in any
    order (or in parallel) without changing any result.
    """
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(trials)]


def _codim_trial(args: tuple[int, int, int, int]) -> tuple[int, tuple]:
    d, n, N, trial_seed = args
    config = random_configuration(n, N, random.Random(trial_seed))
    return codimension(d, config), config.points


def _map_trials(worker, args_list, jobs: int):
    # A fork-started pool launches all max_workers processes on the first
    # submit, so never ask for more than there are tasks or CPUs.
    workers = min(jobs, len(args_list), os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, len(args_list) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, args_list, chunksize=chunk))
    return [worker(args) for args in args_list]


@dataclass(frozen=True)
class CollinearProbe:
    """Codimension of the collinear probe configuration at degree 2N-2."""

    degree: int
    points: tuple
    codimension: int
    max_allowed: int       # N(n+1) - 1
    line_bound: int        # N(n-1) + d + 1
    below_generic: bool    # codimension <= N(n+1) - 1
    within_line_bound: bool
    equals_line_bound: bool

    def to_json_obj(self) -> dict:
        return {
            "degree": self.degree,
            "points": [[str(c) for c in p] for p in self.points],
            "codimension": self.codimension,
            "max_allowed": self.max_allowed,
            "line_bound": self.line_bound,
            "below_generic": self.below_generic,
            "within_line_bound": self.within_line_bound,
            "equals_line_bound": self.equals_line_bound,
        }


@dataclass(frozen=True)
class CodimLemmaReport:
    """Outcome of the randomized codimension check plus the sharpness probe."""

    params: ParameterTriple
    trials: int
    seed: int
    expected: int
    codimensions: tuple[int, ...]
    counterexamples: tuple[dict, ...]
    collinear: CollinearProbe | None
    in_guaranteed_range: bool
    verified: bool

    def to_json_obj(self) -> dict:
        return {
            "expected_codimension": self.expected,
            "in_guaranteed_range": self.in_guaranteed_range,
            "results": [
                {"trial": i, "codimension": v} for i, v in enumerate(self.codimensions)
            ],
            "counterexamples": list(self.counterexamples),
            "collinear_probe": self.collinear.to_json_obj() if self.collinear else None,
            "verified": self.verified,
        }


def verify_codim_lemma(
    params: ParameterTriple, trials: int, seed: int, jobs: int = 1
) -> CodimLemmaReport:
    """Check that d >= 2N-1 forces codimension N(n+1), and that the bound is sharp.

    Part one samples `trials` distinct configurations and recomputes the
    codimension at the given degree; when d >= 2N-1 every value must equal
    N(n+1) and any deviation is recorded as a counterexample. Part two
    evaluates the deterministic collinear configuration at degree 2N-2,
    where the codimension must drop below N(n+1), and records how the exact
    value compares with the collinear ceiling N(n-1) + d + 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    d, n, N = params.d, params.n, params.N
    expected = params.expected_codimension
    args_list = [(d, n, N, s) for s in derive_trial_seeds(seed, trials)]
    outcomes = _map_trials(_codim_trial, args_list, jobs)

    codims = tuple(c for c, _ in outcomes)
    counterexamples = []
    if params.in_guaranteed_range:
        for i, (c, points) in enumerate(outcomes):
            if c != expected:
                counterexamples.append(
                    {
                        "trial": i,
                        "codimension": c,
                        "expected": expected,
                        "points": [[str(x) for x in p] for p in points],
                    }
                )

    probe = None
    probe_degree = 2 * N - 2
    if probe_degree >= 1:
        config = collinear_configuration(n, N)
        value = codimension(probe_degree, config)
        line_bound = N * (n - 1) + probe_degree + 1
        probe = CollinearProbe(
            degree=probe_degree,
            points=config.points,
            codimension=value,
            max_allowed=expected - 1,
            line_bound=line_bound,
            below_generic=value <= expected - 1,
            within_line_bound=value <= line_bound,
            equals_line_bound=value == line_bound,
        )

    verified = not counterexamples and (
        probe is None or (probe.below_generic and probe.within_line_bound)
    )
    return CodimLemmaReport(
        params=params,
        trials=trials,
        seed=seed,
        expected=expected,
        codimensions=codims,
        counterexamples=tuple(counterexamples),
        collinear=probe,
        in_guaranteed_range=params.in_guaranteed_range,
        verified=verified,
    )


@dataclass(frozen=True)
class RegularityScan:
    """Symbolic Hilbert values near the top of a stabilization scan."""

    stabilization_degree: int
    target: int
    values: dict[int, int]  # degrees probed by the downward scan


def regularity_profile(config: PointConfiguration, d_max: int) -> RegularityScan:
    """Scan downward from d_max for the onset of the stable value N(n+1).

    Raises StabilizationError if the value at d_max is not yet stable or if
    the onset lands above 2N-1 (either would contradict the degree bound).
    """
    N = config.count
    if d_max < 2 * N:
        raise ValueError(f"d_max must be >= 2N = {2 * N}, got {d_max}")
    target = N * (config.dimension + 1)
    values: dict[int, int] = {}
    d = d_max
    while d >= 1:
        values[d] = hilbert_function(d, config, "symbolic")
        if values[d] != target:
            break
        d -= 1
    first_stable = d + 1
    if first_stable > d_max:
        raise StabilizationError(
            f"symbolic Hilbert value at degree {d_max} is {values[d_max]}, "
            f"expected {target}"
        )
    if first_stable > 2 * N - 1:
        raise StabilizationError(
            f"stabilization only from degree {first_stable}, above the bound {2 * N - 1}"
        )
    return RegularityScan(
        stabilization_degree=first_stable,
        target=target,
        values=dict(sorted(values.items())),
    )


def _gp_trial(args: tuple[int, int, int]) -> tuple:
    n, N, trial_seed = args
    config = random_general_position_configuration(n, N, random.Random(trial_seed))
    return config.points


def _config_codim(args: tuple[int, int, tuple]) -> int:
    d, n, points = args
    return codimension(d, PointConfiguration(n, points))


def general_position_bound(
    n: int,
    N: int,
    trials: int,
    seed: int,
    d_max: int,
    jobs: int = 1,
) -> int:
    """Empirical first degree at which general-linear-position points impose N(n+1) conditions.

    Samples `trials` configurations verified to be in general linear position
    (every subset of size min(N, n+1) has full coordinate rank) and returns
    the smallest d <= d_max at which all of them give codimension N(n+1).
    One-sided: a larger trial count can only push the estimate up.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    args_list = [(n, N, s) for s in derive_trial_seeds(seed, trials)]
    configs = _map_trials(_gp_trial, args_list, jobs)
    expected = N * (n + 1)
    for d in range(1, d_max + 1):
        if coefficient_space_dim(d, n) < expected:
            continue
        codims = _map_trials(_config_codim, [(d, n, pts) for pts in configs], jobs)
        if all(c == expected for c in codims):
            return d
    raise StabilizationError(
        f"no degree <= {d_max} gave codimension {expected} on all {trials} "
        f"general-position samples"
    )
