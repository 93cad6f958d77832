"""Slow reference implementations that certify the fast paths of spinsectors.

The library calls none of these; the tests compare it against them.

- `multiplicity_by_quadrature`: multiplicities from the Weyl character
  integral, against the binomial closed form and the fusion recursion.
- `multiplicity_by_binomials`: spin-1/2 n_J as the difference C(L, q) -
  C(L, q-1) of two binomials, against the stepped runs of the geometry.
- `singlet_geometry_reference`: the J = 0 geometry's multiplicities, block
  weights and sector dimension with every product n_A n_B stepped from the
  last, one spin at a time, against the library's blocks of spins.
- `saddle_exponent`, `saddle_exponent_d1`, `saddle_exponent_d2`: psi(z)
  and its first two derivatives through the character polynomial, for any
  species and any number type, against the library's closed forms of the
  rate, the saddle point (the zero of psi') and the prefactor.
- `clebsch_gordan_exact`: one Clebsch-Gordan coefficient from the Racah
  sum in exact rationals, against the library's J**2 recursion columns.
- `stretched_weight_log`, `stretched_weight`: one stretched Clebsch-Gordan
  weight from three `log_binomial` calls, against the library's columns.
- `stretched_column_logs`, `singlet_average_reference`,
  `sd2_average_reference`, `max_spin_entropy_reference`,
  `page_average_reference`: the closed forms with one stretched column and
  its entropy per call and each block weight n_A n_B / d formed where it is
  read, against the library's columns and entropies in one pass and weights
  formed with its guard.
- `sector_dimensions`: fixed-J_z, fixed-J and fixed-(J, J_z) dimensions by
  direct counting.
- `sector_basis`, `coupled_sector_basis`: explicit (J, J_z) bases over the
  magnetization slice, coupled site by site or across a cut, and
  `apply_total_spin_squared` to certify them.
- `hamiltonian_matrix`, `spin_squared_matrix`, `momentum_blocks`: dense
  fixed-J_z matrices without symmetry, and every complex momentum block of H.
- `assemble_block_direct`: a momentum block from one `bond_matrix_elements`
  call over all bonds, against the library's bond-term tables.
- `complex_resolve`: eigenstate records from complex momentum blocks, H
  projected onto complex J**2 eigenbases per coupling, and entropies from
  complex Schmidt blocks, against the library's real (k, J) subspaces and
  real Schmidt blocks; `slice_amplitudes` maps its vectors.
- `per_block_resolve`, `per_block_schmidt_entropies`: eigenstate records
  block by block, one `eigh` call per (k, J) subspace and one Schmidt pass
  per block with one `eigvalsh` call per Schmidt block, against the
  library's runs of blocks, bitwise.
- `flip_classes`: the flip-even and flip-odd rows of an m_A = 0 Schmidt
  block by explicit partner indices, against the library's slices.
- `kron_hamiltonian`, `kron_spin_squared`: full-product-space operators
  from Kronecker products, independent of the library's bond kernel.
- `draw_blocks`: one Monte Carlo W drawn block by block, two normal calls
  per (J_A, J_B) pair for complex coefficients, against the sampler's one
  call scattered through the geometry's draw map.
- `concatenated_entropy`, `sampler_entropies_reference`,
  `slice_entropy_reference`: Monte Carlo and slice entropies from all Schmidt
  spectra of a state concatenated, each repeated by its copies, and one
  np.dot per state, against the library's one kernel call per block; its
  Schmidt blocks are complex wherever the states are.

Angular momenta are doubled integers, as in the library.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from spinsectors.combinatorics import (
    SectorLabel,
    _check_spin_label,
    multiplicity,
    spin_half_multiplicity,
)
from spinsectors.special import digamma, log_binomial
from spinsectors.ensembles import (
    EIGENVALUE_FLOOR,
    _schmidt_squares,
    bipartition_maps,
    schmidt_square_entropy,
)
from spinsectors.spectra import (
    RESIDUAL_TOL,
    EigenstateRecord,
    _bond_list,
    _central_window,
    _cut_maps,
    _orbit_data,
    _spin_subspaces,
    gaussianity_of_vector,
)
from spinsectors.su2 import (
    _check_momentum,
    _lnfact_table,
    _slice_digits,
    bond_matrix_elements,
    clebsch_gordan,
    configuration_space,
    spin_squared_terms,
)

# ---------------------------------------------------------------------------
# sector counting

# Largest L per species for which the character-integral quadrature is
# guaranteed to round correctly (all values stay well below 2**53).
QUADRATURE_MAX_SITES = {1: 52, 2: 33}


def multiplicity_by_quadrature(species, sites, two_j):
    """Multiplicity via the Weyl character orthogonality integral.

    Evaluates (2/pi) * int_0^pi sin((2J+1)t) sin(t) chi_s(t)**L dt with
    chi_s(t) = sin((2s+1)t)/sin(t) by composite Simpson quadrature and rounds
    to the nearest integer.  The integrand is a trigonometric polynomial of
    degree 2sL + 2J + 2, so 4*(2s)L + 8 panels integrate it exactly up to
    roundoff; extended-precision accumulation keeps the roundoff of the
    d**L-sized cancellations below half a count everywhere within the cap.
    """
    if sites < 1:
        raise ValueError(f"quadrature requires sites >= 1, got {sites}")
    _check_spin_label(species, sites, two_j)
    cap = QUADRATURE_MAX_SITES[species.two_s]
    if sites > cap:
        raise ValueError(
            f"sites={sites} exceeds the quadrature precision cap L<={cap} for spin "
            f"{species.name}; use the exact fusion table instead"
        )
    n_panels = 4 * species.two_s * sites + 8
    long_pi = np.arccos(np.longdouble(-1.0))
    theta = np.linspace(np.longdouble(0), long_pi, n_panels + 1)
    t = theta[1:-1]  # integrand vanishes at both endpoints
    chi = np.sin((species.two_s + 1) * t) / np.sin(t)
    f = np.sin((two_j + 1) * t) * np.sin(t) * chi**sites
    weights = np.empty(n_panels - 1, dtype=np.longdouble)
    weights[0::2] = 4.0
    weights[1::2] = 2.0
    h = theta[1]
    value = float((2.0 / long_pi) * (h / 3.0) * np.sum(weights * f))
    rounded = round(value)
    if abs(value - rounded) > 0.25:
        raise RuntimeError(
            f"quadrature failed to settle on an integer: got {value} for "
            f"(species={species.name}, L={sites}, two_j={two_j})"
        )
    return int(rounded)


def multiplicity_by_binomials(sites, two_j):
    """Spin-1/2 n_J = C(L, q) - C(L, q-1), q = L/2 - J, each binomial on its own."""
    q = (sites - two_j) // 2
    return math.comb(sites, q) - (math.comb(sites, q - 1) if q else 0)


def _ballot_run(sites, two_lo, two_hi):
    """{two_j: n_J} for two_lo <= two_j <= two_hi: n_J at the top from two
    binomials, then down by n_{t-2} = n_t (t-1)(L+t+2) / ((t+1)(L-t+2))."""
    run = {two_hi: multiplicity_by_binomials(sites, two_hi)}
    for t in range(two_hi, two_lo, -2):
        run[t - 2] = run[t] * (t - 1) * (sites + t + 2) // ((t + 1) * (sites - t + 2))
    return dict(sorted(run.items()))


def singlet_geometry_reference(sites, cut):
    """(na, nb, weights, sector_dim) of the J = 0 geometry at any cut: one product
    n_A n_B at the lowest spin, each next one stepped from the last by both
    runs' ballot ratios, and each weight that product over n_J."""
    cut_b = sites - cut
    top = min(cut, cut_b)
    na, nb = _ballot_run(cut, cut % 2, top), _ballot_run(cut_b, cut % 2, top)
    spins = list(na)
    product = na[spins[0]] * nb[spins[0]]
    products = [product]
    for t in spins[1:]:
        product = product * (t + 1) * (cut - t + 2) // ((t - 1) * (cut + t + 2))
        product = product * (t + 1) * (cut_b - t + 2) // ((t - 1) * (cut_b + t + 2))
        products.append(product)
    total = multiplicity_by_binomials(sites, 0)
    assert sum(products) == total
    return na, nb, {t: product / total for t, product in zip(spins, products)}, total


# ---------------------------------------------------------------------------
# saddle-point exponent psi(z) = 2 s j ln z + ln chi(z)


def _char_poly(two_s, z):
    """sum_{k=0..2s} z**(2s-2k), the SU(2) character as a Laurent polynomial."""
    return sum(z ** (two_s - 2 * k) for k in range(two_s + 1))


def _char_poly_d1(two_s, z):
    return sum((two_s - 2 * k) * z ** (two_s - 2 * k - 1) for k in range(two_s + 1))


def _char_poly_d2(two_s, z):
    return sum(
        (two_s - 2 * k) * (two_s - 2 * k - 1) * z ** (two_s - 2 * k - 2)
        for k in range(two_s + 1)
    )


def saddle_exponent(species, z, j, log=math.log):
    """psi(z) at spin density j; pass mpmath.log for an mpf z and j."""
    return species.two_s * j * log(z) + log(_char_poly(species.two_s, z))


def saddle_exponent_d1(species, z, j):
    """psi'(z) at spin density j: zero at the saddle point z0."""
    p = _char_poly(species.two_s, z)
    return species.two_s * j / z + _char_poly_d1(species.two_s, z) / p


def saddle_exponent_d2(species, z, j):
    """psi''(z) at spin density j."""
    p = _char_poly(species.two_s, z)
    p1 = _char_poly_d1(species.two_s, z)
    p2 = _char_poly_d2(species.two_s, z)
    return -species.two_s * j / (z * z) + (p2 * p - p1 * p1) / (p * p)


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients and stretched weights


def clebsch_gordan_exact(two_j1, two_m1, two_j2, two_m2, two_j, two_m):
    """<j1 m1; j2 m2 | J M> (Condon-Shortley) from the Racah sum in exact
    rationals, rounded to a float once at the end.

    The alternating sum runs in integers over the common denominator
    k_max! (a-k_min)! (x-k_min)! (y-k_min)! (u+k_max)! (v+k_max)!, so it
    cancels without rounding at any spin.
    """
    if (two_m1 + two_m2 != two_m or abs(two_m1) > two_j1 or abs(two_m2) > two_j2
            or abs(two_m) > two_j or not abs(two_j1 - two_j2) <= two_j <= two_j1 + two_j2):
        return 0.0
    f = math.factorial
    a, b = (two_j1 + two_j2 - two_j) // 2, (two_j1 - two_j2 + two_j) // 2
    c = (two_j2 - two_j1 + two_j) // 2
    x, y = (two_j1 - two_m1) // 2, (two_j2 + two_m2) // 2
    u, v = (two_j - two_j2 + two_m1) // 2, (two_j - two_j1 - two_m2) // 2
    k_lo, k_hi = max(0, -u, -v), min(a, x, y)
    den = f(k_hi) * f(a - k_lo) * f(x - k_lo) * f(y - k_lo) * f(u + k_hi) * f(v + k_hi)
    total = sum((-1) ** k * den // (f(k) * f(a - k) * f(x - k) * f(y - k) * f(u + k) * f(v + k))
                for k in range(k_lo, k_hi + 1))
    square = Fraction(
        total**2 * (two_j + 1) * f(a) * f(b) * f(c) * f((two_j + two_m) // 2)
        * f((two_j - two_m) // 2) * f(x) * f((two_j1 + two_m1) // 2) * f((two_j2 - two_m2) // 2) * f(y),
        den**2 * f(a + b + c + 1),
    )
    # int / int rounds correctly at any size, where float() of either int overflows
    return math.sqrt(square.numerator / square.denominator) * (-1.0 if total < 0 else 1.0)


def stretched_weight_log(two_ja, two_jb, two_m):
    """ln |<J_A m; J_B -m | J_A+J_B, 0>|**2, stable for large spins.

    Equals ln[ C(2J_A, J_A-m) C(2J_B, J_B+m) / C(2J_A+2J_B, J_A+J_B) ].
    """
    _check_momentum(two_ja, two_m, "J_A")
    _check_momentum(two_jb, two_m, "J_B")
    if abs(two_m) > min(two_ja, two_jb):
        return -math.inf
    return (
        log_binomial(two_ja, (two_ja - two_m) // 2)
        + log_binomial(two_jb, (two_jb + two_m) // 2)
        - log_binomial(two_ja + two_jb, (two_ja + two_jb) // 2)
    )


def stretched_weight(two_ja, two_jb, two_m):
    """|<J_A m; J_B -m | J_A+J_B, 0>|**2 for the maximal coupled spin."""
    lw = stretched_weight_log(two_ja, two_jb, two_m)
    return 0.0 if lw == -math.inf else math.exp(lw)


# ---------------------------------------------------------------------------
# closed forms, one stretched column and one block product at a time


def stretched_column_logs(two_ja, two_jb):
    """One pair's whole stretched column, m ascending, in the float operations
    of `su2._stretched_pass` on the same ln k! table."""
    mm = min(two_ja, two_jb)
    _check_momentum(two_ja, mm, "J_A")
    _check_momentum(two_jb, mm, "J_B")
    n = two_ja + two_jb
    lf = _lnfact_table(n + 1)
    ka = np.arange(two_ja + mm, two_ja - mm - 1, -2) // 2  # (J_A - m) for m ascending
    kb = np.arange(two_jb - mm, two_jb + mm + 1, 2) // 2
    return (
        (lf[two_ja] - lf[ka] - lf[two_ja - ka])
        + (lf[two_jb] - lf[kb] - lf[two_jb - kb])
        - (lf[n] - lf[n // 2] - lf[n - n // 2])
    )


def _column_entropy(two_ja, two_jb):
    """-sum w ln w of one stretched column, in the order of np.add.reduceat over
    one segment: its first term plus numpy's pairwise sum of the rest."""
    lw = stretched_column_logs(two_ja, two_jb)
    terms = np.exp(lw) * lw
    return -float(terms[0] + np.add.reduce(terms[1:]))


def _page_block_sum(blocks):
    """sum_b (d_b/d) [S_w + S_Page(n_A, n_B) + psi(d+1) - psi(d_b+1)] over
    (n_A, n_B, S_w) blocks, d_b = n_A n_B and d = sum d_b."""
    d = sum(na * nb for na, nb, _ in blocks)
    psi_d = digamma(d + 1)
    total = 0.0
    for na, nb, s_w in blocks:
        lo, hi = sorted((na, nb))
        total += (na * nb / d) * (psi_d - digamma(hi + 1) - (lo - 1) / (2 * hi) + s_w)
    return total


def page_average_reference(dim_a, dim_b):
    return _page_block_sum([(dim_a, dim_b, 0.0)])


def max_spin_entropy_reference(sites, cut):
    return _column_entropy(cut, sites - cut)


def singlet_average_reference(sites, cut):
    cut = min(cut, sites - cut)
    return _page_block_sum([
        (spin_half_multiplicity(cut, a), spin_half_multiplicity(sites - cut, a), math.log(1.0 + a))
        for a in range(cut % 2, cut + 1, 2)
    ])


def sd2_average_reference(sites, two_j, cut):
    """The sd2 closed form, or None where no J_B = J - J_A pairing exists."""
    pairs = [(a, two_j - a) for a in range(cut % 2, cut + 1, 2) if 0 <= two_j - a <= sites - cut]
    return _page_block_sum([
        (spin_half_multiplicity(cut, a), spin_half_multiplicity(sites - cut, b), _column_entropy(a, b))
        for a, b in pairs
    ]) if pairs else None


def _spin_one_weight_count(sites, jz):
    """Number of {-1,0,1}**L configurations with total magnetization jz."""
    total = 0
    for zeros in range(sites + 1):
        rest = sites - zeros
        if (rest + jz) % 2:
            continue
        plus = (rest + jz) // 2
        if 0 <= plus <= rest:
            total += math.comb(sites, zeros) * math.comb(rest, plus)
    return total


class SectorDims(NamedTuple):
    fixed_jz: int
    fixed_j: int
    fixed_j_jz: int


def sector_dimensions(species, sites, two_j, two_jz):
    """Dimensions of the fixed-J_z, fixed-J, and fixed-(J, J_z) sectors.

    The fixed-J_z dimension counts product configurations directly (binomial
    for spin-1/2, trinomial for spin-1); the others come from the exact
    multiplicity n_J.
    """
    _check_spin_label(species, sites, two_j)
    if (species.two_s * sites - two_jz) % 2:
        raise ValueError(
            f"two_jz={two_jz} has the wrong integrality class for {sites} sites of spin {species.name}"
        )
    if abs(two_jz) > species.two_s * sites:
        raise ValueError(f"|two_jz|={abs(two_jz)} exceeds the maximal magnetization")
    if species.two_s == 1:
        fixed_jz = math.comb(sites, (sites + two_jz) // 2)
    else:
        fixed_jz = _spin_one_weight_count(sites, two_jz // 2)
    n = multiplicity(species, sites, two_j)
    fixed_j = (two_j + 1) * n
    fixed_j_jz = n if abs(two_jz) <= two_j else 0
    return SectorDims(fixed_jz, fixed_j, fixed_j_jz)


# ---------------------------------------------------------------------------
# explicit sector bases

_SLICE_CAP = 1_000_000


def _couple_paths(species, sites, two_j_final=None, two_m_final=None):
    """Couple sites left to right, tracking every intermediate-spin path.

    Returns a list of (path, mdict) where path is the tuple of total spins
    after each site and mdict maps two_m to {config tuple: amplitude}.  Paths
    (and magnetizations, if requested) that cannot reach the target are pruned.
    """
    two_s = species.two_s
    states = [((), 0, {0: {(): 1.0}})]
    for k in range(1, sites + 1):
        remaining = sites - k
        new_states = []
        for path, jk, mdict in states:
            for jn in range(abs(jk - two_s), jk + two_s + 1, 2):
                if two_j_final is not None and not (
                    two_j_final - two_s * remaining <= jn <= two_j_final + two_s * remaining
                ):
                    continue
                ndict = {}
                for mn in range(-jn, jn + 1, 2):
                    if two_m_final is not None and abs(mn - two_m_final) > two_s * remaining:
                        continue
                    acc = {}
                    for ms in range(-two_s, two_s + 1, 2):
                        mk = mn - ms
                        if abs(mk) > jk:
                            continue
                        sub = mdict.get(mk)
                        if not sub:
                            continue
                        cg = clebsch_gordan(jk, mk, two_s, ms, jn, mn)
                        if cg == 0.0:
                            continue
                        for cfg, amp in sub.items():
                            key = cfg + (ms,)
                            acc[key] = acc.get(key, 0.0) + amp * cg
                    if acc:
                        ndict[mn] = acc
                if ndict:
                    new_states.append((path + (jn,), jn, ndict))
        states = new_states
    return [(path, mdict) for path, _, mdict in states]


@dataclass
class SectorBasis:
    """Orthonormal basis of one (J, J_z) sector over the magnetization slice.

    ``vectors[i]`` holds the amplitudes of basis vector i on ``configs`` (one
    row per configuration, columns are sites, entries are local two_m).
    ``labels[i]`` records provenance: the intermediate-spin path for directly
    coupled bases, or (two_ja, two_jb, a, b) for bipartite coupled bases.
    """

    sector: SectorLabel
    configs: np.ndarray
    vectors: np.ndarray
    labels: tuple
    cut: int | None = None

    def __len__(self):
        return self.vectors.shape[0]


def _slice_two_ms(species, sites, two_jz):
    """Local two_m rows of the slice in lexicographic order, site 0 most significant."""
    digits = _slice_digits(species.two_s, sites, two_jz)
    # the slice is closed under reversing the sites, and reversed rows sorted
    # by code are sorted lexicographically
    return (2 * digits[:, ::-1] - species.two_s).astype(np.int8)


def _config_index(configs):
    return {tuple(int(x) for x in row): i for i, row in enumerate(configs)}


def _guard_slice(species, sites, two_j, two_jz):
    dims = sector_dimensions(species, sites, two_j, two_jz)
    if dims.fixed_jz > _SLICE_CAP:
        raise ValueError(
            f"magnetization slice has {dims.fixed_jz} configurations, above the "
            f"{_SLICE_CAP} construction cap"
        )
    return dims


def sector_basis(species, sites, two_j, two_jz):
    """Orthonormal (J, J_z) eigenbasis built by coupling one site at a time.

    The number of returned vectors equals the exact multiplicity n_J; an empty
    sector yields an empty basis.
    """
    label = SectorLabel(species, sites, two_j, two_jz)
    _guard_slice(species, sites, two_j, two_jz)
    configs = _slice_two_ms(species, sites, two_jz)
    index = _config_index(configs)
    paths = [
        (path, mdict)
        for path, mdict in _couple_paths(species, sites, two_j, two_jz)
        if path[-1] == two_j and two_jz in mdict
    ]
    vectors = np.zeros((len(paths), len(configs)))
    labels = []
    for i, (path, mdict) in enumerate(paths):
        for cfg, amp in mdict[two_jz].items():
            vectors[i, index[cfg]] = amp
        labels.append(path)
    return SectorBasis(label, configs, vectors, tuple(labels))


def coupled_sector_basis(species, sites, cut, two_j, two_jz=0):
    """Sector basis organized by bipartite (J_A, J_B) coupling across `cut`.

    Every vector is sum_m <J_A m; J_B M-m | J M> |J_A, m>_a (x) |J_B, M-m>_b
    for one admissible (J_A, J_B) pair and one copy pair (a, b); the total
    count again equals n_J.
    """
    if not 1 <= cut < sites:
        raise ValueError(f"cut must satisfy 1 <= cut < sites, got {cut}")
    label = SectorLabel(species, sites, two_j, two_jz)
    _guard_slice(species, sites, two_j, two_jz)
    configs = _slice_two_ms(species, sites, two_jz)
    index = _config_index(configs)

    def by_spin(paths):
        groups = {}
        for path, mdict in paths:
            groups.setdefault(path[-1], []).append(mdict)
        return groups

    a_groups = by_spin(_couple_paths(species, cut))
    b_groups = by_spin(_couple_paths(species, sites - cut))

    vecs = []
    labels = []
    for two_ja in sorted(a_groups):
        for two_jb in sorted(b_groups):
            if not abs(two_ja - two_jb) <= two_j <= two_ja + two_jb:
                continue
            if (two_ja + two_jb - two_j) % 2:
                continue
            for a_idx, a_m in enumerate(a_groups[two_ja]):
                for b_idx, b_m in enumerate(b_groups[two_jb]):
                    v = np.zeros(len(configs))
                    for two_m in range(-two_ja, two_ja + 1, 2):
                        two_mb = two_jz - two_m
                        if abs(two_mb) > two_jb:
                            continue
                        cg = clebsch_gordan(two_ja, two_m, two_jb, two_mb, two_j, two_jz)
                        if cg == 0.0:
                            continue
                        for cfg_a, amp_a in a_m[two_m].items():
                            for cfg_b, amp_b in b_m[two_mb].items():
                                v[index[cfg_a + cfg_b]] += cg * amp_a * amp_b
                    vecs.append(v)
                    labels.append((two_ja, two_jb, a_idx + 1, b_idx + 1))
    vectors = np.array(vecs) if vecs else np.zeros((0, len(configs)))
    return SectorBasis(label, configs, vectors, tuple(labels), cut=cut)


def apply_total_spin_squared(state, species, configs):
    """Total J**2 applied to a state on the given configurations (rows of local two_m).

    Raises ValueError if J**2 maps a configuration outside `configs`.
    """
    configs = np.asarray(configs)
    if state.shape[0] != configs.shape[0]:
        raise ValueError(
            f"state length {state.shape[0]} does not match {configs.shape[0]} configurations"
        )
    two_s = species.two_s
    digits = (configs + two_s) // 2
    codes = digits @ (two_s + 1) ** np.arange(configs.shape[1], dtype=np.int64)
    order = np.argsort(codes)
    diagonal, bonds = spin_squared_terms(two_s, configs.shape[1])
    col, row, amp = bond_matrix_elements(two_s, digits, bonds, codes[order])
    out = diagonal * state
    np.add.at(out, order[row], amp * state[col])
    return out


# ---------------------------------------------------------------------------
# Monte Carlo draws


def draw_blocks(rng, geo, w):
    """Draw one random coupled state into the zeroed W `w`, pair by pair, with
    complex coefficients if `w` is complex, and normalize it."""
    complex_coefficients = np.iscomplexobj(w)
    total = 0.0
    for two_ja, two_jb in geo.pairs:
        block = w[geo.rows[two_ja], geo.cols[two_jb]]
        block[...] = rng.standard_normal(block.shape)
        if complex_coefficients:
            block += 1j * rng.standard_normal(block.shape)
        total += float(np.sum(np.abs(block) ** 2))
    w *= 1.0 / math.sqrt(total)


# ---------------------------------------------------------------------------
# Schmidt entropies from one concatenated spectrum


def concatenated_entropy(parts):
    """-sum w ln w of the spectra (or stacks of them) in `parts`, (spectrum,
    copies) pairs: each repeated `copies` times, all concatenated along the
    last axis, and each row's values above the floor summed by one np.dot."""
    lam = np.concatenate([spectrum for spectrum, copies in parts for _ in range(copies)], axis=-1)
    values = []
    for row in lam.reshape(-1, lam.shape[-1]):
        kept = row[row > EIGENVALUE_FLOOR]
        values.append(max(0.0, float(-np.dot(kept, np.log(kept)))))
    return values[0] if lam.ndim == 1 else np.array(values)


def sampler_entropies_reference(geo, w, methods):
    """The sampler's full, sd1 and sd2 entropies of one W or a stack of them,
    from the geometry's Schmidt blocks through `concatenated_entropy`."""
    parts = {method: [] for method in methods}
    for index, weights, sd1_parts, copies in geo.m_blocks:
        x = weights * w[(Ellipsis,) + index]
        if "full" in parts:
            parts["full"].append((_schmidt_squares(x), copies))
        for part in sd1_parts if "sd1" in parts else ():
            parts["sd1"].append((_schmidt_squares(x[(Ellipsis,) + part]), copies))
    if "sd2" in parts:
        blocks = {pair: w[..., geo.rows[pair[0]], geo.cols[pair[1]]] for pair in geo.sd2_pairs}
        trace = sum(np.sum(np.abs(block) ** 2, axis=(-2, -1)) for block in blocks.values())
        for pair, block in blocks.items():
            lam = _schmidt_squares(block) / np.expand_dims(trace, -1)
            weights = geo.cg_columns[pair][: min(pair) + 1][::-1] ** 2  # c_m**2, m ascending
            outer = weights[:, None] * lam[..., None, :]
            parts["sd2"].append((outer.reshape(lam.shape[:-1] + (-1,)), 1))
    return {method: concatenated_entropy(p) for method, p in parts.items()}


def flip_classes(blocks):
    """The library's flip split of stacked Schmidt blocks whose rows i and
    n-1-i are flip partners, by explicit partner indices: the rows (x_i +
    x_{n-1-i}) / sqrt 2 for i < n // 2 followed by the middle row of an odd
    n, and the rows (x_i - x_{n-1-i}) / sqrt 2."""
    n = blocks.shape[-2]
    first = np.arange(n // 2)
    x, partner = blocks[:, first], blocks[:, n - 1 - first]
    middle = blocks[:, [n // 2] if n % 2 else []]
    return np.concatenate([(x + partner) * math.sqrt(0.5), middle], axis=1), (x - partner) * math.sqrt(0.5)


def slice_entropy_reference(states, configs, a_sites, maps=None):
    """`slice_entanglement_entropy` of a column stack of states through
    `concatenated_entropy`; given `maps` (for example flip-reduced ones), the
    entropies over those maps instead of `bipartition_maps`.  Each Schmidt
    block is filled as given, complex for complex states: the `mirror` that
    ends a `_cut_maps` entry is not used."""
    if maps is None:
        maps = [(order, shape, 1, False) for order, shape in bipartition_maps(configs, a_sites)]
    parts = []
    for order, shape, copies, flip_paired, *_ in maps:
        sel = np.flatnonzero(order < len(states))  # the entries the slice holds
        blocks = np.zeros((states.shape[1],) + shape, dtype=states.dtype)
        blocks[:, sel // shape[1], sel % shape[1]] = states[order[sel]].T
        parts += [(_schmidt_squares(p), copies)
                  for p in (flip_classes(blocks) if flip_paired else (blocks,))]
    return concatenated_entropy(parts)


# ---------------------------------------------------------------------------
# dense operator matrices


def _slice_matrix(two_s, sites, two_jz, bonds, diagonal_shift=0.0):
    codes, digits = configuration_space(two_s, sites, two_jz)
    col, row, amp = bond_matrix_elements(two_s, digits, bonds, codes)
    matrix = np.eye(len(codes)) * diagonal_shift
    np.add.at(matrix, (row, col), amp)
    return matrix


def hamiltonian_matrix(spec, two_jz=0):
    """Dense Hamiltonian on the fixed-J_z configuration space (no symmetry)."""
    return _slice_matrix(spec.species.two_s, spec.sites, two_jz, _bond_list(spec))


def spin_squared_matrix(species, sites, two_jz=0):
    """Dense total J**2 on the fixed-J_z configuration space."""
    diagonal, bonds = spin_squared_terms(species.two_s, sites)
    return _slice_matrix(species.two_s, sites, two_jz, bonds, diagonal)


@dataclass
class MomentumBlock:
    """One complex total-quasimomentum block of a translation-invariant operator."""

    momentum_index: int
    sites: int
    representatives: np.ndarray
    matrix: np.ndarray

    @property
    def is_complex_sector(self) -> bool:
        return 2 * self.momentum_index % self.sites != 0

    @property
    def dim(self) -> int:
        return len(self.representatives)


def assemble_block_direct(two_s, sites, momentum_index, bonds, diagonal_shift=0.0):
    """Momentum block of diagonal_shift + the bonds, all bond elements built in
    one call and combined with their momentum phases and period ratios."""
    codes, digits = configuration_space(two_s, sites, 0)
    rep, shift, period, _ = _orbit_data(two_s, sites)
    n = momentum_index
    block_reps = np.flatnonzero((shift == 0) & ((n * period) % sites == 0))
    dim = len(block_reps)
    col, row, amp = bond_matrix_elements(two_s, digits[block_reps], bonds, codes)
    target = np.searchsorted(block_reps, rep[row])
    keep = (target < dim) & (block_reps[np.minimum(target, dim - 1)] == rep[row])
    k = 2.0 * math.pi * n / sites
    values = amp * np.exp(1j * k * shift[row]) * np.sqrt(period[block_reps][col] / period[row])
    matrix = np.eye(dim, dtype=complex) * diagonal_shift
    np.add.at(matrix, (target[keep], col[keep]), values[keep])
    matrix = 0.5 * (matrix + matrix.conj().T)
    return MomentumBlock(n, sites, codes[block_reps], matrix)


def momentum_blocks(spec):
    """All L complex momentum blocks of the Hamiltonian on the J_z=0 slice."""
    bonds = _bond_list(spec)
    return [assemble_block_direct(spec.species.two_s, spec.sites, n, bonds) for n in range(spec.sites)]


def slice_amplitudes(two_s, block, vectors):
    """Slice-configuration amplitudes of momentum-block columns: configuration
    c = T**t r of the orbit of representative r carries exp(-ikt) / sqrt(period)
    times the entry of r."""
    codes, _ = configuration_space(two_s, block.sites, 0)
    rep, shift, period, _ = _orbit_data(two_s, block.sites)
    position = np.searchsorted(block.representatives, codes[rep])
    inside = block.representatives[np.minimum(position, block.dim - 1)] == codes[rep]
    k = 2.0 * math.pi * block.momentum_index / block.sites
    amps = np.zeros((len(codes), vectors.shape[1]), dtype=complex)
    amps[inside] = vectors[position[inside]] * (np.exp(-1j * k * shift) / np.sqrt(period))[inside, None]
    return amps


def config_amplitudes(block, vectors):
    """Slice-configuration amplitudes of the momentum-basis columns of a
    library `_Block`: configuration c carries phase[c] times row position[c],
    zero when its orbit is not in the block; real columns at k = 0, pi stay
    real."""
    padded = np.vstack([vectors, np.zeros((1, vectors.shape[1]), dtype=vectors.dtype)])
    return padded[block.position] * block.phase[:, None]


def complex_resolve(spec, fraction=Fraction(1, 2)):
    """`diagonalize_and_resolve` in complex momentum blocks, per coupling.

    Each block's J**2 eigenbasis Q_J comes from a complex `eigh`; H is
    projected onto it as Q_J^dagger H Q_J and its eigenvectors are Q_J rot.
    Flags: the J**2 residual, |Hv - Ev| against RESIDUAL_TOL max(1, max|E|),
    and the largest slice-row flip defect of Q_J, scaled by sqrt(period).
    """
    two_s, sites = spec.species.two_s, spec.sites
    _, _, period, _ = _orbit_data(two_s, sites)
    diagonal, j2_bonds = spin_squared_terms(two_s, sites)
    if fraction is not None:
        cut = round(Fraction(fraction) * sites)
        _, digits = configuration_space(two_s, sites, 0)
    records = []
    for n in range(sites // 2 + 1):
        block = assemble_block_direct(two_s, sites, n, _bond_list(spec))
        values, basis = np.linalg.eigh(assemble_block_direct(two_s, sites, n, j2_bonds, diagonal).matrix)
        two_js = np.rint(np.sqrt(4.0 * values + 1.0) - 1.0).astype(int)
        parts = []
        for two_j in np.unique(two_js):
            q = basis[:, two_js == two_j]
            parity = (-1) ** ((two_s * sites - two_j) // 2)
            amps = slice_amplitudes(two_s, block, q)
            flip_defect = (np.linalg.norm(amps[::-1] - parity * amps, axis=1) * np.sqrt(period)).max()
            h_q = block.matrix @ q
            energies, rot = np.linalg.eigh(q.conj().T @ h_q)
            vectors = q @ rot
            parts.append((energies, np.full(len(energies), two_j),
                          np.abs(values[two_js == two_j] @ np.abs(rot) ** 2 - two_j / 2 * (two_j / 2 + 1)),
                          np.linalg.norm(h_q @ rot - vectors * energies, axis=0),
                          np.full(len(energies), flip_defect), vectors))
        energies, labels, j2_res, h_res, flips, vectors = (np.concatenate(c, axis=-1) for c in zip(*parts))
        order = np.lexsort((labels, energies))
        energies, labels, j2_res, h_res, flips = (a[order] for a in (energies, labels, j2_res, h_res, flips))
        scale = max(1.0, np.abs(energies).max())
        flagged = (j2_res > RESIDUAL_TOL) | (h_res > RESIDUAL_TOL * scale) | (flips > RESIDUAL_TOL)
        central = np.zeros(block.dim, dtype=bool)
        central[_central_window(block.dim)] = True
        gaussianity, entropy = np.full((2, block.dim), math.nan)
        chosen = np.flatnonzero(central & ~flagged)
        if chosen.size:
            picked = vectors[:, order[chosen]]
            gaussianity[chosen] = gaussianity_of_vector(picked)
            if fraction is not None:
                entropy[chosen] = slice_entropy_reference(
                    slice_amplitudes(two_s, block, picked), digits, range(cut),
                    _cut_maps(two_s, sites, cut))
        columns = (energies, labels, j2_res, central, gaussianity, entropy, flagged)
        records += [EigenstateRecord(e, n, j, r, c, block.is_complex_sector, g, s, f)
                    for e, j, r, c, g, s, f in zip(*(a.tolist() for a in columns))]
    return records


def per_block_schmidt_entropies(maps, amps):
    """The library's Schmidt pass over the `_cut_maps` entries `maps` of one
    block's states, given as slice amplitudes `amps` (one column per state):
    each Schmidt block scattered into zeros at the (k // cols, k % cols) of
    its entries k, the real part of a complex one at column mirror[k] % cols,
    with one Gram and one `eigvalsh` call per entry and flip class, each
    entropy summed as soon as its spectrum is found."""
    values = np.zeros(amps.shape[1])
    for order, shape, copies, flip_paired, mirror in maps:
        entries = amps[order]
        rows, cols = np.divmod(np.arange(len(order)), shape[1])
        blocks = np.zeros((amps.shape[1],) + shape)
        if np.iscomplexobj(entries):
            blocks[:, rows, cols] = entries.imag.T
            blocks[:, rows, mirror % shape[1]] += entries.real.T
        else:
            blocks[:, rows, cols] = entries.T
        for part in flip_classes(blocks) if flip_paired else (blocks,):
            values += copies * schmidt_square_entropy(_schmidt_squares(part))
    return values


def per_block_resolve(spec, fraction=Fraction(1, 2)):
    """`diagonalize_and_resolve` block by block: one `eigh` call per (k, J)
    subspace and one `per_block_schmidt_entropies` pass per momentum block,
    against the library's runs of blocks, which share their solves by
    subspace size and one Schmidt pass."""
    two_s, sites = spec.species.two_s, spec.sites
    if fraction is not None:
        cut = round(Fraction(fraction) * sites)
        maps = _cut_maps(two_s, sites, cut)
    coeffs = np.array([coeff for _, coeff, _ in _bond_list(spec)])
    records = []
    for block, subspaces in _spin_subspaces(two_s, sites):
        parts, rots = [], []
        for sub in subspaces:
            h = sub.terms @ coeffs
            energies, rot = np.linalg.eigh(h)
            rots.append(rot)
            parts.append((energies, np.full(len(rot), sub.two_j),
                          np.abs(sub.j2_values @ rot**2 - sub.two_j / 2 * (sub.two_j / 2 + 1)),
                          np.linalg.norm(h @ rot - rot * energies, axis=0) + np.abs(coeffs) @ sub.leakage))
        energies, two_js, j2_residuals, h_residuals = map(np.concatenate, zip(*parts))
        dim = len(energies)
        scale = max(1.0, np.abs(energies).max())
        by_energy = np.argsort(energies)
        gaps = np.diff(energies[by_energy]) > RESIDUAL_TOL * scale
        group = np.empty(dim, dtype=int)
        group[by_energy] = np.concatenate(([0], np.cumsum(gaps)))
        order = np.lexsort((two_js, group))
        energies, two_js, j2_residuals, h_residuals = (
            a[order] for a in (energies, two_js, j2_residuals, h_residuals))
        flagged = (j2_residuals > RESIDUAL_TOL) | (h_residuals > RESIDUAL_TOL * scale)
        central = np.zeros(dim, dtype=bool)
        central[_central_window(dim)] = True
        gaussianity, entropy = np.full((2, dim), math.nan)
        chosen = np.flatnonzero(central & ~flagged)
        if chosen.size:
            index = order[chosen]
            picked = np.empty((dim, chosen.size))
            lo = 0
            for sub, rot in zip(subspaces, rots):
                mine = np.flatnonzero((index >= lo) & (index < lo + len(rot)))
                picked[:, mine] = sub.basis @ rot[:, index[mine] - lo]
                lo += len(rot)
            picked = block.to_momentum(picked)
            gaussianity[chosen] = gaussianity_of_vector(picked)
            if fraction is not None:
                padded = np.vstack([picked, np.zeros((1, chosen.size), dtype=picked.dtype)])
                phase = block.phase
                if block.complex_sector:
                    phase = phase * np.exp(1j * math.pi * block.momentum_index * cut / sites)
                entropy[chosen] = per_block_schmidt_entropies(maps, padded[block.position] * phase[:, None])
        columns = (energies, two_js, j2_residuals, central, gaussianity, entropy, flagged)
        n, complex_sector = block.momentum_index, block.complex_sector
        records += [EigenstateRecord(e, n, j, r, c, complex_sector, g, s, f)
                    for e, j, r, c, g, s, f in zip(*(a.tolist() for a in columns))]
    return records


# ---------------------------------------------------------------------------
# Kronecker-product operators on the full product space


def kron_site_operators(two_s, sites):
    """Independent (S^z, S^x, S^y) of every site as full-product-space Kronecker products."""
    d = two_s + 1
    s = two_s / 2
    m = np.arange(d) - s
    sz = np.diag(m)
    sp = np.zeros((d, d))
    for k in range(d - 1):
        sp[k + 1, k] = math.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    sm = sp.T
    ops = [sz, 0.5 * (sp + sm), 0.5j * (sm - sp)]

    def site_op(op, i):
        out = np.array([[1.0 + 0j]])
        for site in range(sites):
            out = np.kron(out, op if site == i else np.eye(d))
        return out

    return [[site_op(op, i) for op in ops] for i in range(sites)]


def kron_hamiltonian(two_s, sites, coupling):
    """Independent full-product-space Hamiltonian built from Kronecker products."""
    d = two_s + 1
    site_ops = kron_site_operators(two_s, sites)

    def exchange(i, j):
        return sum(a @ b for a, b in zip(site_ops[i], site_ops[j]))

    ham = np.zeros((d**sites, d**sites), dtype=complex)
    for i in range(sites):
        bond = exchange(i, (i + 1) % sites)
        if two_s == 1:
            ham += -bond - coupling * exchange(i, (i + 2) % sites)
        else:
            ham += -bond + coupling * (bond @ bond)
    return ham


def kron_spin_squared(two_s, sites):
    """Independent total J**2 on the full product space: the square of each summed component."""
    site_ops = kron_site_operators(two_s, sites)
    totals = [sum(ops[c] for ops in site_ops) for c in range(3)]
    return sum(t @ t for t in totals)


def restrict_to_zero_magnetization(matrix, two_s, sites):
    """Rows and columns of a full-product-space matrix whose configuration has J_z = 0."""
    d = two_s + 1
    keep = []
    for code in range(d**sites):
        digits, c = [], code
        for _ in range(sites):
            digits.append(c % d)
            c //= d
        if sum(2 * x - two_s for x in digits) == 0:
            keep.append(code)
    idx = np.array(keep)
    return matrix[np.ix_(idx, idx)]
