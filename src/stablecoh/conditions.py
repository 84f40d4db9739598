"""Singularity conditions at point configurations, in exact arithmetic.

Requiring a degree-d form to be singular at a point imposes n+1 linear
conditions (one per partial derivative). Their rank has three engines: for
d >= 2N-1, the block-diagonal conditions of the lemma's witness forms;
otherwise, or if a witness block fails, a stream of the nonzero condition
columns into a rank certified mod p, each built when the rank reads it;
and Bareiss elimination when that certificate fails. This module also
compares the two degreewise squares of a point ideal (products of ideal
elements versus order-two vanishing), and packages the randomized
verification of the codimension stabilization at degree 2N-1 together
with the collinear sharpness probe.
"""

from __future__ import annotations

import os
import random
import sys
from math import prod
from operator import add, getitem, mul
from typing import Iterator, NamedTuple

from .linalg import ExactMatrix, certified_rank, integer_rank, kernel_basis
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


def __getattr__(name: str):
    # The process pool, and the multiprocessing it loads, is imported on first
    # use only: most commands never start one. The class is then cached as a
    # module attribute, which is where _map_trials looks it up, so a stand-in
    # assigned to conditions.ProcessPoolExecutor is honoured.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Most entries a matrix may have: about 100 MB of 70-160-bit integers, and
# about 50 times the largest benchmark matrix (30 x 1365). Larger problems
# raise ValueError (exit 2 in the CLI) instead of exhausting memory.
MAX_MATRIX_ENTRIES = 2_000_000


def _check_size(rows: int, cols: int) -> None:
    if rows * cols > MAX_MATRIX_ENTRIES:
        raise ValueError(f"problem too large: {rows} x {cols} exceeds {MAX_MATRIX_ENTRIES} entries")


def _monomial_values(point: tuple[int, ...], e: int, n: int) -> list[int]:
    """Values at an integer point of the degree-e monomials, in graded-lex order."""
    pows = [[c**k for k in range(e + 1)] for c in point]
    return [prod(map(getitem, pows, exps)) for exps in enumerate_monomials(e, n)]


def _monomials_on(d: int, coords: list[int], n: int) -> Iterator[tuple[int, ...]]:
    """The degree-d monomials in the variables x_i, i in coords, as (n+1)-tuples."""
    for exps in enumerate_monomials(d, len(coords) - 1):
        e = [0] * (n + 1)
        for i, k in zip(coords, exps):
            e[i] = k
        yield tuple(e)


def _singularity_columns(d: int, config: PointConfiguration) -> Iterator[list[int]]:
    """The nonzero columns of the singularity conditions, each built when it is read.

    One row per (point, variable i), one column per degree-d monomial e: the
    entry is d/dx_i x^e = e_i x^(e - eps_i) at the point's normal form, so the
    rank is the codimension of the forms vanishing to order >= 2 at every
    point. The coordinates are permuted alike at every point, those zero at
    the fewest points first: an automorphism of P^n, which keeps the rank.
    Column e is nonzero exactly when e has degree <= 1 on the coordinates Z
    vanishing at some point, so when every point has a zero coordinate only
    those monomials are enumerated, per zero set Z: the degree-d ones off Z
    and x_z times the degree-(d-1) ones off Z, for each z in Z. Each
    degree-(d-1) value is computed at every point when a column first reads it.
    """
    n = config.dimension
    order = sorted(range(n + 1), key=lambda i: sum(not p[i] for p in config.integer_points))
    points = [[p[i] for i in order] for p in config.integer_points]
    zero_sets = {tuple(i for i, c in enumerate(p) if not c) for p in points}
    if () in zero_sets:  # a point with no zero coordinate: no column is zero
        candidates = enumerate_monomials(d, n)
    else:
        kept = set()
        for z in zero_sets:
            free = [i for i in range(n + 1) if i not in z]
            kept.update(_monomials_on(d, free, n))
            kept.update(e[:i] + (1,) + e[i + 1:] for e in _monomials_on(d - 1, free, n) for i in z)
        candidates = sorted(kept, reverse=True)  # graded-lex order
    pows = [[[c**k for k in range(d)] for c in p] for p in points]
    values: dict[tuple[int, ...], list[int]] = {}  # lower monomial -> values at the points
    no_partial = [0] * len(points)  # scaled by e_i = 0 where x_i is absent from e
    for e in candidates:
        partials = []
        for i, k in enumerate(e):
            f = e[:i] + (k - 1,) + e[i + 1:]
            if k and f not in values:
                values[f] = [prod(map(getitem, t, f)) for t in pows]
            partials.append((k, values[f] if k else no_partial))
        yield [k * vals[j] for j in range(len(points)) for k, vals in partials]


def _separating_form(p: tuple[int, ...], q: tuple[int, ...]) -> list[int]:
    """The linear form q_j x_i - q_i x_j, for the first i < j with p_i q_j != p_j q_i."""
    i, j = next((i, j) for i in range(len(p)) for j in range(i + 1, len(p))
                if p[i] * q[j] != p[j] * q[i])
    form = [0] * len(p)
    form[i], form[j] = q[j], -q[i]
    return form


def _witness_blocks(d: int, config: PointConfiguration) -> list[list[list[int]]] | None:
    """The diagonal blocks of the codimension lemma's witness forms, for d >= 2N-1.

    For each point p_a, K_a = M_a^(d+1-2N) * prod_{b != a} L_ab^2 has degree
    d-1, where M_a = x_m for the first nonzero coordinate m of p_a and
    L_ab = _separating_form(p_a, p_b). Each L_ab is checked to vanish at p_b,
    so K_a and its gradient vanish there, and not at p_a. The conditions of
    the forms x_j * K_a are then zero at every point but p_a, where they form
    B_a[i][j] = delta_ij K_a(p_a) + p_a[j] dK_a/dx_i(p_a) by the product
    rule. Returns None if a form fails a check.
    """
    points = config.integer_points
    blocks = []
    for a, p in enumerate(points):
        m = next(i for i, c in enumerate(p) if c)
        # (form, exponent k, value v at p_a) per factor of K_a; v divides K_a(p_a) if k > 0
        factors = [([int(i == m) for i in range(len(p))], d + 1 - 2 * len(points), p[m])]
        for b, q in enumerate(points):
            if b != a:
                form = _separating_form(p, q)
                value = sum(map(mul, form, p))
                if sum(map(mul, form, q)) or not value:
                    return None
                factors.append((form, 2, value))
        at_p = prod(v**k for _, k, v in factors)
        grad = [sum(k * form[i] * (at_p // v) for form, k, v in factors) for i in range(len(p))]
        blocks.append([[at_p * (i == j) + p[j] * grad[i] for j in range(len(p))]
                       for i in range(len(p))])
    return blocks


def codimension(d: int, config: PointConfiguration) -> int:
    """Number of independent conditions the singularities impose in degree d.

    A size guard counting every column, zero or not, comes first. For
    d >= 2N-1 the witness forms x_j * K_a (see _witness_blocks) have
    block-diagonal conditions; full certified rank on every block proves
    rank N(n+1), the row count. Otherwise the nonzero columns are streamed
    and certified mod p: about N(n+1) of them at full rank, every one below
    the smaller dimension, as for the collinear probe at degree 2N-2. There
    the pivot minor and an exact left kernel prove the rank from both sides,
    and only if that check fails does Bareiss decide on the kept columns.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    rows = config.count * (config.dimension + 1)
    cols = coefficient_space_dim(d, config.dimension)
    _check_size(rows, cols)
    if d >= 2 * config.count - 1:
        size = config.dimension + 1
        blocks = _witness_blocks(d, config)
        if blocks is not None and all(certified_rank(b, (size, size)) == size for b in blocks):
            return rows
    return certified_rank(_singularity_columns(d, config), (rows, cols))


def symbolic_square_dim(d: int, config: PointConfiguration) -> int:
    """Dimension of the degree-d forms vanishing to order >= 2 at every point."""
    return coefficient_space_dim(d, config.dimension) - codimension(d, config)


def evaluation_matrix(e: int, config: PointConfiguration) -> ExactMatrix:
    """N x comb(e+n, n) matrix of monomial values at the points' normal forms."""
    n = config.dimension
    cols = coefficient_space_dim(e, n)
    _check_size(config.count, cols)
    entries = tuple(tuple(_monomial_values(point, e, n)) for point in config.integer_points)
    return ExactMatrix(config.count, cols, entries)


def ideal_degree_part(e: int, config: PointConfiguration) -> tuple[tuple[int, ...], ...]:
    """Basis of the degree-e forms vanishing (to first order) at every point."""
    if e < 1:
        raise ValueError(f"degree must be >= 1, got {e}")
    matrix = evaluation_matrix(e, config)
    return kernel_basis(matrix.entries, matrix.cols)


def ordinary_square_dim(d: int, config: PointConfiguration) -> int:
    """Dimension of the span of products g*h with g, h vanishing at all points.

    g runs over degree a and h over degree d-a for every split 1 <= a <= d-1;
    since the ideal of the points is generated in positive degrees, this span
    is the full degree-d part of its square.
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    n = config.dimension
    # I^2 lies inside I^(2), so the rank is at most dim I^(2)_d. Taking that
    # bound first puts codimension's size guard before any enumeration.
    bound = symbolic_square_dim(d, config)
    # A degree-e basis has at least C(e+n, n) - N forms, so the product count
    # is bounded below before any kernel is built.
    least = [max(0, coefficient_space_dim(e, n) - config.count) for e in range(d)]
    fewest_pairs = sum(least[a] * least[d - a] for a in range(1, d // 2 + 1))
    _check_size(fewest_pairs, coefficient_space_dim(d, n))
    index = monomial_index(d, n)
    n_cols = len(index)
    # Each basis form of degree e as its nonzero (exponent, coefficient) terms.
    terms = {
        e: [[(m, c) for m, c in zip(enumerate_monomials(e, n), g) if c]
            for g in ideal_degree_part(e, config)]
        for e in range(1, d)
    }
    pairs = sum(len(terms[a]) * len(terms[d - a]) for a in range(1, d // 2 + 1))
    _check_size(pairs, n_cols)
    products: dict[tuple[int, ...], None] = {}
    for a in range(1, d // 2 + 1):
        for g in terms[a]:
            for h in terms[d - a]:
                vec = [0] * n_cols
                for ea, ga in g:
                    for eb, hb in h:
                        vec[index[tuple(map(add, ea, eb))]] += ga * hb
                products[tuple(vec)] = None
    return integer_rank(list(products), bound)


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


def _codim_trial(args: tuple[int, int, int, int]) -> tuple[int, PointConfiguration]:
    d, n, N, trial_seed = args
    config = random_configuration(n, N, random.Random(trial_seed))
    return codimension(d, config), config


def _map_trials(worker, args_list, jobs: int):
    # A fork-started pool launches all max_workers processes on the first
    # submit, so never ask for more than there are tasks or CPUs.
    workers = min(jobs, len(args_list), os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, len(args_list) // (workers * 4))
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
            return list(pool.map(worker, args_list, chunksize=chunk))
    return [worker(args) for args in args_list]


class CollinearProbe(NamedTuple):
    """Codimension of the collinear probe configuration at degree 2N-2."""

    degree: int
    points: list[list[str]]  # as echoed, from PointConfiguration.json_points()
    codimension: int
    max_allowed: int       # N(n+1) - 1
    line_bound: int        # N(n-1) + d + 1
    below_generic: bool    # codimension <= N(n+1) - 1
    within_line_bound: bool
    equals_line_bound: bool


class CodimLemmaReport(NamedTuple):
    """Outcome of the randomized codimension check plus the sharpness probe."""

    codimensions: tuple[int, ...]
    counterexamples: tuple[dict, ...]
    collinear: CollinearProbe | None
    verified: bool


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
        for i, (c, config) in enumerate(outcomes):
            if c != expected:
                counterexamples.append(
                    {
                        "trial": i,
                        "codimension": c,
                        "expected": expected,
                        "points": config.json_points(),
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
            points=config.json_points(),
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
        codimensions=codims,
        counterexamples=tuple(counterexamples),
        collinear=probe,
        verified=verified,
    )


class RegularityScan(NamedTuple):
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
        values[d] = codimension(d, config)
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


def _first_full_degree(args: tuple[int, int, int, int]) -> int | None:
    """First d <= d_max at which one sampled configuration has codimension N(n+1), or None."""
    n, N, d_max, trial_seed = args
    config = random_general_position_configuration(n, N, random.Random(trial_seed))
    expected = N * (n + 1)
    for d in range(1, d_max + 1):
        if coefficient_space_dim(d, n) >= expected and codimension(d, config) == expected:
            return d
    return None


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
    args_list = [(n, N, d_max, s) for s in derive_trial_seeds(seed, trials)]
    # The codimension is the Hilbert function of the zero-dimensional scheme
    # of double points, which never decreases in d and never exceeds N(n+1).
    # A configuration that reaches N(n+1) therefore keeps it, and the first
    # degree good for every trial is the largest of the trials' first degrees.
    firsts = _map_trials(_first_full_degree, args_list, jobs)
    if None in firsts:
        raise StabilizationError(
            f"no degree <= {d_max} gave codimension {N * (n + 1)} on all {trials} "
            f"general-position samples"
        )
    return max(firsts)
