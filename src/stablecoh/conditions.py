"""Singularity conditions at point configurations, in exact arithmetic.

Requiring a degree-d form to be singular at a point imposes n+1 linear
conditions (one per partial derivative). Points that span less than P^n
first split, by a linear change of coordinates, into blocks on their
span. Spanning points then have three returns: C(d+n, n) for d <= 2,
where no nonzero linear form or quadric is singular at them all; the row
count N(n+1) for d >= 2N-1, once each block of the lemma's witness forms
is shown of full rank by one exact elimination; and otherwise the rank on
the points' own frame, which takes (n+1)^2 unread and streams the other
nonzero columns, each built when read, into a rank certified mod p, or
decided by Bareiss elimination when that certificate fails. This module
also compares the two degreewise squares of a point ideal (products of
ideal elements versus order-two vanishing), and packages the randomized
verification of the codimension stabilization at degree 2N-1 together
with the collinear sharpness probe, whose trials start a process pool
only once they outlast its start-up.
"""

from __future__ import annotations

import os
import random
import sys
from bisect import bisect_left
from collections.abc import Iterator
from functools import cache, partial
from math import prod
from operator import add, getitem, mul
from time import perf_counter

from ._record import record
from .linalg import ExactMatrix, _eliminate, _kernel, certified_rank, integer_rank, kernel_basis
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


def _singularity_columns(d: int, config: PointConfiguration) -> Iterator[list[int]]:
    """The nonzero singularity columns the frame leaves, each built when it is read.

    One row per (point, variable i), one column per degree-d monomial e: the
    entry is d/dx_i x^e = e_i x^(e - eps_i) at the point's normal form. The
    monomials with an exponent >= d-1 are skipped: the coordinate points'
    conditions fill them, one per row, and no other row's (see _frame_rank).
    The coordinates are permuted alike at every point, those zero at the
    fewest points first, which permutes the other columns among themselves.
    Column e is nonzero exactly when e has degree <= 1 on the coordinates
    vanishing at some point; one walk over the degree-d monomials skips the
    zero columns. Each degree-(d-1) value is computed at every point when a
    column first reads it.
    """
    n = config.dimension
    order = sorted(range(n + 1), key=lambda i: sum(not p[i] for p in config.integer_points))
    points = [[p[i] for i in order] for p in config.integer_points]
    zero_sets = {tuple(i for i, c in enumerate(p) if not c) for p in points}
    if () in zero_sets:  # a point with no zero coordinate: no column is zero
        zero_sets = set()
    pows = [[[c**k for k in range(d)] for c in p] for p in points]
    values: dict[tuple[int, ...], list[int]] = {}  # lower monomial -> values at the points
    no_partial = [0] * len(points)  # scaled by e_i = 0 where x_i is absent from e
    for e in enumerate_monomials(d, n):
        if max(e) >= d - 1:
            continue
        if zero_sets and all(sum(e[i] for i in z) > 1 for z in zero_sets):
            continue
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
    rule. By Euler's identity p_a . grad K_a(p_a) = (d-1) K_a(p_a), so
    det B_a = d K_a(p_a)^(n+1) != 0 and codimension's fallback to the
    frame is only a guard. Returns None if a form fails a check.
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


def _frame_rank(d: int, config: PointConfiguration) -> int:
    """The codimension of points spanning P^n at d >= 3, on their own frame.

    The frame is n+1 independent points, the pivot columns of one elimination
    of the points taken as columns, with A their matrix. The integer change of
    coordinates adj(A) moves them to the coordinate points e_k and every other
    point q to the normal form of adj(A).q, which the kernel vector of q gives
    up to scale; the rank does not change. At e_k, row (e_k, i) has one
    nonzero entry, in column x_k^(d-1) x_i, and for d >= 3 these (n+1)^2
    columns are distinct: exactly the monomials with an exponent >= d-1. So
    the codimension is (n+1)^2 plus the rank of the other points' rows on the
    other columns, the block certified_rank streams and proves.
    """
    n = config.dimension
    peeled = (n + 1) ** 2
    if config.count == n + 1:
        return peeled
    frame, kernel = _kernel(list(zip(*config.integer_points)), config.count)
    others = PointConfiguration(n, tuple(tuple(v[k] for k in frame) for v in kernel))
    return peeled + certified_rank(_singularity_columns(d, others))


def codimension(d: int, config: PointConfiguration) -> int:
    """Number of independent conditions the singularities impose in degree d.

    A size guard counting every column, zero or not, comes first. Let I be
    the pivot columns of the N x (n+1) point matrix, by exact elimination,
    and Z the other coordinates. On the points' span x_z = c_z . x_I, and
    the change x_z -> x_z - c_z . x_I keeps the rank and the I-coordinates
    and puts every point in V(x_z : z in Z). There the conditions are block
    diagonal by support: the monomials free of Z give the same problem on
    P^(|I|-1) at the points' I-coordinates, which span it, and for each z
    in Z the monomials x_z * m give the evaluation matrix there at degree
    d-1. Then there are three returns. For d <= 2 it is C(d+n, n): a
    linear form singular at a point is zero, and so is a quadric singular
    at points spanning P^n, which is singular everywhere. For d >= 2N-1,
    full rank by one exact elimination on each block of the witness forms
    x_j * K_a (see _witness_blocks) proves rank N(n+1), the row count, with
    no prime. Otherwise, or if a witness block fails, the points' own frame,
    valid for every d >= 3, gives (n+1)^2 of the rank with no column read
    and streams only the other points' block (see _frame_rank) into
    certified_rank: about one column read per row at full row rank, and
    every nonzero one below it.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    n = config.dimension
    rows = config.count * (n + 1)
    _check_size(rows, coefficient_space_dim(d, n))
    support = _eliminate(config.integer_points, n + 1)[1]
    if len(support) <= n:
        dropped = PointConfiguration(len(support) - 1, tuple(
            tuple(p[i] for i in support) for p in config.integer_points))
        values = evaluation_matrix(d - 1, dropped).entries
        return codimension(d, dropped) + (n + 1 - len(support)) * certified_rank(values)
    if d <= 2:
        return coefficient_space_dim(d, n)
    if d >= 2 * config.count - 1:
        blocks = _witness_blocks(d, config)
        if blocks is not None and all(len(_eliminate(b, len(b))[1]) == len(b) for b in blocks):
            return rows
    return _frame_rank(d, config)


def symbolic_square_dim(d: int, config: PointConfiguration) -> int:
    """Dimension of the degree-d forms vanishing to order >= 2 at every point."""
    codim = codimension(d, config)  # first, so d < 0 gets the degree message
    return coefficient_space_dim(d, config.dimension) - codim


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
    is the full degree-d part of its square, for d >= 1: 0 at d = 1, with no split.
    """
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

    'symbolic' counts conditions for order-two vanishing (the rank of the singularity
    matrix); 'ordinary' counts the complement of the degreewise product span, which is
    n+1 at d = 1. Both stabilize at N(n+1) for d >= 2N-1; they can differ below 2N
    and any such disagreement is data, not an error. Each square refuses d < 1.
    """
    if mode == "symbolic":
        return codimension(d, config)
    if mode == "ordinary":
        square = ordinary_square_dim(d, config)
        return coefficient_space_dim(d, config.dimension) - square
    raise ValueError(f"mode must be 'symbolic' or 'ordinary', got {mode!r}")


# --- randomized verification -------------------------------------------------


# Most trials verify_codim_lemma and general_position_bound accept. Every
# trial's seed and result are held until the report is built: verify-lemma
# 15/3/8 --jobs 1 --format json grows by about 0.34 KB a trial, and took
# 10 s and 21 MB peak RSS at 20,000 trials, and 45-55 s and 48 MB at the
# limit (Python 3.11, 2 vCPUs, started from a small process), so time binds,
# not memory. Every golden, benchmark and roadmap figure uses at most 2,000
# trials. More raise ValueError (exit 2 in the CLI) before any seed is derived.
MAX_TRIALS = 100_000


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"problem too large: {trials} trials exceeds {MAX_TRIALS}")


def derive_trial_seeds(seed: int, trials: int) -> list[int]:
    """Per-trial seeds drawn once from the master seed.

    Derivation is sequential and up front, so trials can then run in any
    order (or in parallel) without changing any result.
    """
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(trials)]


def _codim_trial(d: int, n: int, N: int, trial_seed: int) -> int:
    return codimension(d, random_configuration(n, N, random.Random(trial_seed)))


# How long this process runs trials itself before it starts a pool. Importing
# concurrent.futures, starting two workers and shutting them down took about
# 31 ms on 2 vCPUs (Python 3.11), and a pool only pays for itself on trials
# that outlast that, so the head start is a little above it.
POOL_START_S = 0.05


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _map_trials(worker, seeds: list[int], jobs: int) -> list:
    """worker(seed) for each trial seed, in order: a trial is its seed, its result one integer.

    With more than one worker allowed, this process first runs the trials in
    order until all are done or they have taken POOL_START_S, and only the
    rest go to a pool: rent until the rent reaches the price, then buy
    (Karlin, Manasse, Rudolph and Sleator, Competitive snoopy caching, 1988).
    Results and the first error raised are those of a serial run.
    """
    cpus = available_cpus()
    results = []
    if min(jobs, cpus) > 1:
        start = perf_counter()
        while len(results) < len(seeds) and perf_counter() - start < POOL_START_S:
            results.append(worker(seeds[len(results)]))
    rest = seeds[len(results):]
    # A fork-started pool launches all max_workers processes on the first
    # submit, so never ask for more than there are tasks or CPUs.
    workers = min(jobs, len(rest), cpus)
    if workers > 1:
        chunk = max(1, len(rest) // (workers * 4))
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
            return results + list(pool.map(worker, rest, chunksize=chunk))
    return results + list(map(worker, rest))


CollinearProbe = record("CollinearProbe", [
    "degree",             # int
    "points",             # list[list[str]]: as echoed, from PointConfiguration.json_points()
    "codimension",        # int
    "max_allowed",        # int: N(n+1) - 1
    "line_bound",         # int: N(n-1) + d + 1
    "below_generic",      # bool: codimension <= N(n+1) - 1
    "within_line_bound",  # bool
    "equals_line_bound",  # bool
])
CollinearProbe.__doc__ = "Codimension of the collinear probe configuration at degree 2N-2."

CodimLemmaReport = record("CodimLemmaReport", [
    "codimensions",     # tuple[int, ...]
    "counterexamples",  # tuple[dict, ...]
    "collinear",        # CollinearProbe | None
    "verified",         # bool
])
CodimLemmaReport.__doc__ = "Outcome of the randomized codimension check plus the sharpness probe."


def verify_codim_lemma(
    params: ParameterTriple, trials: int, seed: int, jobs: int = 1
) -> CodimLemmaReport:
    """Check that d >= 2N-1 forces codimension N(n+1), and that the bound is sharp.

    Part one samples a configuration from each of `trials` derived seeds and
    keeps its codimension at the given degree; when d >= 2N-1 every value
    must equal N(n+1), and a deviation is recorded as a counterexample whose
    points are re-sampled from its seed. Part two evaluates the collinear
    configuration at degree 2N-2, where the codimension must drop below
    N(n+1), and records how it compares with the ceiling N(n-1) + d + 1.
    """
    _check_trials(trials)
    d, n, N = params.d, params.n, params.N
    expected = params.expected_codimension
    seeds = derive_trial_seeds(seed, trials)
    codims = tuple(_map_trials(partial(_codim_trial, d, n, N), seeds, jobs))
    counterexamples = []
    if params.in_guaranteed_range:
        for i, c in enumerate(codims):
            if c != expected:
                config = random_configuration(n, N, random.Random(seeds[i]))
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


RegularityScan = record("RegularityScan", [
    "stabilization_degree",  # int
    "target",                # int
    # dict[int, int]: read at d_max, the onset and below it; N(n+1) between by _onset
    "values",
])
RegularityScan.__doc__ = (
    "Symbolic Hilbert values from the degree below the onset of N(n+1) to d_max.")


def _onset(config: PointConfiguration, d_max: int, h) -> int | None:
    """Least d <= d_max with h(d) = codimension(d, config) = N(n+1), or None.

    h is the Hilbert function of the double-point scheme: it never decreases in d,
    never exceeds N(n+1) (Eisenbud, GTM 229) and is short below lo, the least d >= 1
    with C(d+n, n) >= N(n+1). A gallop lo, lo+1, lo+3, lo+7, ... to a full degree,
    then a bisection back over the last gap, reads no degree above twice the onset.
    """
    full = config.count * (config.dimension + 1)
    lo = max(1, bisect_left(range(full), full,
                            key=lambda d: coefficient_space_dim(d, config.dimension)))
    below, step = lo - 1, 1
    while below < d_max:
        d = min(lo - 1 + step, d_max)
        if h(d) == full:
            return below + 1 + bisect_left(range(below + 1, d), True, key=lambda e: h(e) == full)
        below, step = d, 2 * step
    return None


def regularity_profile(config: PointConfiguration, d_max: int) -> RegularityScan:
    """The onset of N(n+1), read at d_max, at _onset's probes and at the degree below it.

    The degrees from the onset to d_max hold N(n+1) by _onset's argument.
    Raises StabilizationError if the value at d_max is not yet stable or if
    the onset lands above 2N-1 (either would contradict the degree bound).
    """
    N = config.count
    if d_max < 2 * N:
        raise ValueError(f"d_max must be >= 2N = {2 * N}, got {d_max}")
    target = N * (config.dimension + 1)
    h = cache(lambda d: codimension(d, config))
    if h(d_max) != target:
        raise StabilizationError(f"symbolic Hilbert value at degree {d_max} is {h(d_max)}, "
                                 f"expected {target}")
    onset = _onset(config, d_max, h)
    if onset > (bound := 2 * N - 1):
        raise StabilizationError(f"stabilization only from degree {onset}, above the bound {bound}")
    return RegularityScan(
        stabilization_degree=onset,
        target=target,
        values={d: h(d) if d < onset else target for d in range(max(onset - 1, 1), d_max + 1)},
    )


def _first_full_degree(n: int, N: int, d_max: int, trial_seed: int) -> int | None:
    config = random_general_position_configuration(n, N, random.Random(trial_seed))
    return _onset(config, d_max, lambda d: codimension(d, config))


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
    _check_trials(trials)
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    # Full stays full (see _onset): the first degree good for all trials is their largest.
    firsts = _map_trials(partial(_first_full_degree, n, N, d_max),
                         derive_trial_seeds(seed, trials), jobs)
    if None in firsts:
        raise StabilizationError(
            f"no degree <= {d_max} gave codimension {N * (n + 1)} on all {trials} "
            f"general-position samples"
        )
    return max(firsts)
