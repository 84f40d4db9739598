"""First-page accounting for the discriminant spectral sequence.

Columns are indexed by the number l of prescribed singular points. For
l <= n+1 the column is a shifted, twisted copy of the configuration-space
table; columns n+1 < l < N vanish; column N is represented only by the
degree threshold above which it cannot contribute, plus dimension bounds for
its substrata. Alexander duality then turns Borel-Moore degrees into
cohomological degrees of the complement, where the stable band must
reproduce the exterior-algebra table of the general linear group.
"""

from __future__ import annotations

from collections import Counter

from ._record import record
from .params import ParameterTriple, coefficient_space_dim
from .tables import (MAX_E1_DIMENSION, GradedTateVector, check_e1_dimension, gaussian_binomial,
                     gl_cohomology, shifted_grassmannian)

# Largest point count N that band, e1-page and stable-range (N = (d+1)//2)
# accept. e1-page --d 3 --n 1 --format json takes 0.27 s and 43 MB at
# N = 100,000 and 2.7 s and 298 MB at N = 1,000,000; stable-range takes 2.6 s
# and 182 MB at d = 199,999, n = 64. Golden and benchmark cases have N <= 18.
MAX_E1_POINTS = 100_000


class E1Page(record("E1Page", [
    "coefficient_dim",  # int
    "columns",          # dict[int, GradedTateVector]: column l -> its Borel-Moore table
    "fn_threshold",     # int: BM degree from which column N cannot contribute
    "phi_dim_bounds",   # tuple[int, ...]: real-dimension bound 2c-2N+l for substratum l
    "guaranteed",       # bool
    "regime_notes",     # tuple[str, ...]
])):
    """Assembled first page: columns 1..n+1 plus the column-N threshold data."""

    __slots__ = ()

    def supported_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(set().union(*self.columns.values())))


def stratum_bm(d: int, n: int, l: int) -> GradedTateVector:
    """Borel-Moore homology of the column-l stratum.

    The twisted configuration table in degree j, which starts at l(l-1) with
    Tate index l(l-1)/2, lands in stratum degree j + 2c - 2ln - l - 1 and
    picks up the fibre twist Q(c - l(n+1)), giving Tate index
    j/2 + c - l(n+1). Support therefore runs from 2c - l(2n+2-l) - 1 up to
    2c - l^2 - 1, with one fixed parity.
    """
    if not 1 <= l <= n + 1:
        raise ValueError(f"column must be between 1 and n+1 = {n + 1}, got {l}")
    c = coefficient_space_dim(d, n)
    low = 2 * c - l * (2 * n + 2 - l) - 1
    return shifted_grassmannian(l, n, low, l * (l - 1) // 2 + c - l * (n + 1))


def assemble_e1(params: ParameterTriple) -> E1Page:
    """Assemble columns 1..n+1 and the column-N vanishing data for (d, n, N).

    Outside the guaranteed regime (N >= 3, d >= 2N-1, N > n+1) the tables
    are still computed; the page records why in `regime_notes` and is marked
    not `guaranteed`, rather than raising an error.
    """
    d, n, N = params.d, params.n, params.N
    check_e1_dimension(n)
    if N > MAX_E1_POINTS:
        raise ValueError(f"problem too large: N = {N} exceeds {MAX_E1_POINTS}")
    c = params.coefficient_dim
    notes = []
    if N < 3:
        notes.append(f"N = {N} is below the guaranteed minimum 3")
    if d < 2 * N - 1:
        notes.append(f"d = {d} is below the degree bound 2N-1 = {2 * N - 1}")
    if N <= n + 1:
        notes.append(f"N = {N} does not exceed n+1 = {n + 1}")
    columns = {l: stratum_bm(d, n, l) for l in range(1, n + 2)}
    return E1Page(
        coefficient_dim=c,
        columns=columns,
        fn_threshold=2 * c - N,
        phi_dim_bounds=tuple(2 * c - 2 * N + l for l in range(N)),
        guaranteed=not notes,
        regime_notes=tuple(notes),
    )


class DualClass(record("DualClass", [
    "column",       # int
    "bm_degree",    # int
    "dual_degree",  # int
    "dim",          # int
    "tate",         # int
])):
    """One Alexander-dual class of the complement, tracked back to its column."""

    __slots__ = ()

    @property
    def weight(self) -> int:
        return -2 * self.tate


def dual_classes(page: E1Page) -> tuple[DualClass, ...]:
    """Per-column dual classes: degree k = 2c-1-(BM degree), twist shifted by -c."""
    c = page.coefficient_dim
    out = []
    for l in sorted(page.columns):
        for bm_degree, dim, tate in page.columns[l].iter_components():
            out.append(
                DualClass(
                    column=l,
                    bm_degree=bm_degree,
                    dual_degree=2 * c - 1 - bm_degree,
                    dim=dim,
                    tate=tate - c,
                )
            )
    return tuple(out)


def alexander_dual(page: E1Page) -> GradedTateVector:
    """Cohomology upper bound for the complement from the assembled page.

    Dimensions from different columns add in equal dual degree; components
    of distinct weight are kept separate. Valid as an upper bound in the
    band where column N cannot contribute.
    """
    return GradedTateVector.from_components(
        (cls.dual_degree, cls.dim, cls.tate) for cls in dual_classes(page)
    )


StableMatchReport = record("StableMatchReport", [
    "n",                # int
    "matched",          # bool
    "stratum_degrees",  # dict[int, int]
    "gl_degrees",       # dict[int, int]
    "missing",          # dict[int, int]: in the general-linear table but not the strata
    "extra",            # dict[int, int]: in the strata but not the general-linear table
    "weights_matched",  # bool
])
StableMatchReport.__doc__ = "Comparison of the dual-degree multiset with the general-linear table."


def verify_stable_match(n: int) -> StableMatchReport:
    """Check that the columns reproduce the general-linear cohomology degrees.

    Column l contributes dual degrees l(2n+2-l) - i with the Betti number of
    the Grassmannian in homological degree i as multiplicity; the formula
    contains no ambient degree, so the match is independent of d. The
    comparison is an exact multiset equality against the positive-degree
    part of the exterior-algebra table, refined by a weight check (a column-l
    class must weigh dual degree + l, matching products of l generators).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    check_e1_dimension(n)
    stratum: Counter = Counter()
    stratum_weighted: Counter = Counter()
    for l in range(1, n + 2):
        top = l * (2 * n + 2 - l)
        for i, betti in enumerate(gaussian_binomial(n + 1, l)):
            if betti:
                degree = top - 2 * i
                stratum[degree] += betti
                stratum_weighted[(degree, degree + l)] += betti
    gl_table = gl_cohomology(n)
    gl: Counter = Counter()
    gl_weighted: Counter = Counter()
    for degree, dim, tate in gl_table.iter_components():
        if degree > 0:
            gl[degree] += dim
            gl_weighted[(degree, -2 * tate)] += dim
    return StableMatchReport(
        n=n,
        matched=stratum == gl,
        stratum_degrees=dict(sorted(stratum.items())),
        gl_degrees=dict(sorted(gl.items())),
        missing=dict(sorted((gl - stratum).items())),
        extra=dict(sorted((stratum - gl).items())),
        weights_matched=stratum_weighted == gl_weighted,
    )


BandReport = record("BandReport", [
    "coefficient_dim",  # int
    "band",             # tuple[int, int]: open interval of cohomological degrees
    "bm_window",        # tuple[int, int]: closed interval of BM degrees that must be empty
    "supports",         # tuple[int, ...]
    "minimal_support",  # int
    "verified",         # bool
    "guaranteed",       # bool
    "regime_notes",     # tuple[str, ...]
])
BandReport.__doc__ = "Vanishing check for the cohomological band between (n+1)^2 and N."


def vanishing_band(params: ParameterTriple) -> BandReport:
    """Verify the cohomology bound vanishes strictly between (n+1)^2 and N.

    Dually: no column may support Borel-Moore homology in the window
    [2c - N, 2c - (n+1)^2 - 2]. The minimal supported degree must be
    2c - (n+1)^2 - 1, attained by the top column.
    """
    n, N = params.n, params.N
    page = assemble_e1(params)
    c = page.coefficient_dim
    lo = 2 * c - N
    hi = 2 * c - (n + 1) ** 2 - 2
    supports = page.supported_degrees()
    verified = not any(lo <= deg <= hi for deg in supports)
    return BandReport(
        coefficient_dim=c,
        band=((n + 1) ** 2, N),
        bm_window=(lo, hi),
        supports=supports,
        minimal_support=min(supports),
        verified=verified,
        guaranteed=page.guaranteed,
        regime_notes=page.regime_notes,
    )


PredictionRow = record("PredictionRow", [
    "degree",      # int
    "dim",         # int
    "components",  # tuple[tuple[int, int, int, int], ...]: (dim, tate, weight, factors)
    "moduli_dim",  # int
])
PredictionRow.__doc__ = "Predicted cohomology of the non-singular locus in one stable degree."

StableRangeReport = record("StableRangeReport", [
    "N",                    # int
    "max_stable_degree",    # int
    "rows",                 # tuple[PredictionRow, ...]
    "band_covers_gl",       # bool
    "stable_positive_dim",  # int
])
StableRangeReport.__doc__ = "Predictions in the stable band k < (d+1)/2 for a fixed (d, n)."


def stable_range_report(d: int, n: int) -> StableRangeReport:
    """Predict the cohomology of the non-singular locus for degrees k < (d+1)/2.

    Takes N = floor((d+1)/2), the largest point count with d >= 2N-1. In the
    band the prediction equals the general-linear table (with its weights,
    where weight - degree counts the column, equivalently the number of
    exterior generators multiplied); the moduli-space prediction is zero in
    every positive stable degree. Degrees d < 3 are refused: the comparison
    map is only available from degree 3 on.
    """
    if d < 3:
        raise ValueError(f"degree must be >= 3, got {d}")
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    check_e1_dimension(n)
    N = (d + 1) // 2
    if N > MAX_E1_POINTS:
        raise ValueError(f"problem too large: N = {N} exceeds {MAX_E1_POINTS}")
    max_stable = d // 2
    # A generator of degree 2k+1 > d/2 adds no class in the band.
    gl_table = gl_cohomology(min(n, (max_stable - 1) // 2))
    rows = []
    for k in range(0, max_stable + 1):
        comps = tuple(
            (dim, tate, -2 * tate, -2 * tate - k) for dim, tate in gl_table.components(k)
        )
        rows.append(
            PredictionRow(
                degree=k,
                dim=gl_table.dimension(k),
                components=comps,
                moduli_dim=1 if k == 0 else 0,
            )
        )
    return StableRangeReport(
        N=N,
        max_stable_degree=max_stable,
        rows=tuple(rows),
        band_covers_gl=max_stable >= (n + 1) ** 2,
        stable_positive_dim=sum(row.dim for row in rows if row.degree > 0),
    )
