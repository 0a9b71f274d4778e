"""Blocked subset counting against the per-subset oracles.

`oa.subset_histograms` counts a whole block of t-row subsets with one
bincount, two later rows per key when the columns allow it.  Its oracles
are the paths it replaced: for the verifiers, one `column_counts`
(strength) or `pair_counts` (Eulerian) call per row subset, judged by its
own copy of the uniformity checks (both counts left `src/` for
test_decoupling.py, where they are also the per-term oracles of the
averaging kernel); for the averaging layer, `support_histograms_oracle`,
which re-encodes every requested support from scratch.  The pair counter,
`euler.pair_histograms`, factors the (vertex, transition) counts through
an array's distinct columns when it can; its oracle is the direct count of
the pair digits it replaced.
"""

import itertools
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eoa import euler as euler_module, oa as oa_module
from eoa.codes import LinearCode, gf_matmul, hamming_code
from eoa.euler import (EulerianCertificate, EulerianViolation, euler_cycle_full,
                       eulerian_oa_from_code, pair_histograms, transitions,
                       verify_eulerian)
from eoa.gf import field_from_order, gf_new
from eoa.oa import StrengthViolation, verify_strength
from test_decoupling import column_counts, pair_counts

FIELDS = {2: gf_new(2, 1), 3: gf_new(3, 1), 4: gf_new(2, 2), 9: gf_new(3, 2)}


# ---------------------------------------------------------------------------
# Per-subset oracle
# ---------------------------------------------------------------------------

def check_rows(entries, q, t, rows):
    N = entries.shape[1]
    counts = column_counts(entries[list(rows)], q)
    if np.all(counts == counts[0]):
        return int(counts[0])
    expected = N / q**t
    target = int(expected) if expected == int(expected) else counts[0]
    bad = int(np.nonzero(counts != target)[0][0])
    symbols = tuple(int(s) for s in np.unravel_index(bad, (q,) * t))
    return StrengthViolation(rows, symbols, int(counts[bad]), expected)


def oracle_strength(entries, q, t):
    lam = None
    for rows in itertools.combinations(range(entries.shape[0]), t):
        res = check_rows(entries, q, t, rows)
        if isinstance(res, StrengthViolation):
            return res
        if lam is None:
            lam = res
        elif res != lam:
            return StrengthViolation(rows, (0,) * t, res, lam)
    return lam


def check_euler_rows(entries, field, t, rows):
    q = field.q
    N = entries.shape[1]
    counts = pair_counts(entries[list(rows)], field)
    used = np.nonzero(counts.sum(axis=0))[0]
    block = counts[:, used]
    expected = N / (q**t * len(used))
    target = int(expected) if expected == int(expected) else int(block[0, 0])
    if not np.all(block == target):
        v, si = np.argwhere(block != target)[0]
        return EulerianViolation(
            rows, "pair-count",
            tuple(int(x) for x in np.unravel_index(int(v), (q,) * t)),
            tuple(int(x) for x in np.unravel_index(int(used[si]), (q,) * t)),
            int(block[v, si]), expected)
    gens = tuple(tuple(int(x) for x in np.unravel_index(int(s), (q,) * t))
                 for s in used)
    return gens, target


def oracle_eulerian(entries, field, t):
    """(edge multiplicity, gensets) or the first EulerianViolation."""
    gensets = {}
    lam = None
    for rows in itertools.combinations(range(entries.shape[0]), t):
        res = check_euler_rows(entries, field, t, rows)
        if isinstance(res, EulerianViolation):
            return res
        gensets[rows], sub_lam = res
        if lam is None:
            lam = sub_lam
        elif sub_lam != lam:
            return EulerianViolation(rows, "pair-count", None, None, sub_lam, lam)
    return lam, gensets


def oracle_verdict(entries, field, t):
    """`verify_eulerian`'s verdict by the per-subset judges: the strength
    oracle's violation first, else the Eulerian oracle's (edge
    multiplicity, gensets) or violation."""
    strength = oracle_strength(entries, field.q, t)
    if isinstance(strength, StrengthViolation):
        return strength
    return oracle_eulerian(entries, field, t)


# ---------------------------------------------------------------------------
# Arrays: Eulerian OAs from codes, then transformed
# ---------------------------------------------------------------------------

def _eulerian_entries(code):
    cycle = euler_cycle_full(code.field, code.k)
    return gf_matmul(code.gen, cycle.vertices.T, code.field)


# q -> [(entries, strength)]: the dual Hamming code (n = q + 1, strength 2)
# and, for q <= 4, the [4, 3] code with a parity row (strength 3)
BASES = {q: [(_eulerian_entries(hamming_code(f, 2).dual()), 2)]
         + ([(_eulerian_entries(LinearCode(f, np.array(
             [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]))), 3)] if q <= 4 else [])
         for q, f in FIELDS.items()}


@st.composite
def arrays(draw):
    q = draw(st.sampled_from(sorted(FIELDS)))
    base, strength = draw(st.sampled_from(BASES[q]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_base, N = base.shape
    t = draw(st.integers(1, 3 if q <= 4 else 2))
    n = draw(st.integers(t, min(n_base, 5)))
    # a row subset, any order, cyclically rotated: still Eulerian
    entries = np.roll(base[rng.permutation(n_base)[:n]], int(rng.integers(N)), axis=1)
    kind = draw(st.sampled_from(["valid", "shuffled", "tampered", "random",
                                 "row-last", "row-middle"]))
    if kind.startswith("row-"):
        # an independent random row, after all the others or among them:
        # the rows past it match the numbering, or the numbering stops there
        at = n if kind == "row-last" else n // 2
        entries = np.insert(entries, at, rng.integers(0, q, size=N), axis=0)
    elif kind == "shuffled":
        entries = entries[:, rng.permutation(N)]
    elif kind == "tampered":
        i, j = int(rng.integers(n)), int(rng.integers(N))
        entries[i, j] = (entries[i, j] + int(rng.integers(1, q))) % q
    elif kind == "random":
        entries = rng.integers(0, q, size=entries.shape)
    return q, t, entries, kind, t <= strength


@settings(max_examples=60, deadline=None)
@given(case=arrays(), budget=st.sampled_from([1, 2, 3, 7, 40, 0]))
def test_blocked_verifiers_match_per_subset_oracle(case, budget):
    """Same lambda, edge multiplicity, gensets and first violation as the
    per-subset path, with blocks of 1 to 3 rows that cut a prefix's later
    rows across blocks, of 7 or 40 that also hold several short prefixes,
    and the full budget (0 here).  The Eulerian verdict is the strength
    oracle's violation first, else the Eulerian oracle's verdict, so a
    failing array's strength violation from the pair count is exactly
    `verify_strength`'s."""
    q, t, entries, kind, certified = case
    field = FIELDS[q]
    N = entries.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        if budget:
            mp.setattr(oa_module, "_BLOCK_KEYS", budget * max(N, q ** (2 * t)))
        strength = verify_strength(entries, q, t)
        euler = verify_eulerian(entries, field, t)
    assert strength == oracle_strength(entries, q, t)
    expected = oracle_verdict(entries, field, t)
    if isinstance(euler, EulerianCertificate):
        assert (euler.edge_multiplicity, euler.gensets) == expected
        assert euler.lam == strength == N // q**t
    else:
        assert euler == expected
    if isinstance(strength, StrengthViolation):
        assert euler == strength
    if kind == "valid" and certified:
        assert isinstance(euler, EulerianCertificate)
    if kind == "tampered" and certified:
        # any single-symbol tamper is rejected by both verifiers, the
        # Eulerian one by its strength judge
        assert isinstance(strength, StrengthViolation)
        assert euler == strength


@pytest.mark.parametrize("q", sorted(FIELDS))
@pytest.mark.parametrize("shuffle", [False, True])
def test_verdicts_do_not_depend_on_memory_layout(q, shuffle):
    """C-ordered, Fortran-ordered and column-gathered copies of one array
    give identical strength and Eulerian verdicts."""
    field = FIELDS[q]
    base, t = BASES[q][0]
    if shuffle:
        base = base[:, np.random.default_rng(q).permutation(base.shape[1])]
    copies = [np.ascontiguousarray(base), np.asfortranarray(base),
              base[:, np.arange(base.shape[1])]]
    assert not copies[2].flags["C_CONTIGUOUS"]
    verdicts = [(verify_strength(a, q, t), verify_eulerian(a, field, t))
                for a in copies]
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert isinstance(verdicts[0][1], EulerianViolation) == shuffle


def test_rare_verdict_branches_match_oracle():
    """The judge's branches that code-built arrays (N = q^{2k}) never
    reach: a non-integral expected count, for strength (from both
    verifiers) and for pairs, and two uniform subsets whose edge
    multiplicities differ."""
    field = FIELDS[2]
    odd = np.array([[0, 0, 1]])
    strength = verify_strength(odd, 2, 1)
    assert strength == oracle_strength(odd, 2, 1)
    assert strength == StrengthViolation((0,), (1,), 1, 1.5)
    assert verify_eulerian(odd, field, 1) == oracle_verdict(odd, field, 1) == strength

    odd_pairs = np.array([[0, 0, 1, 1, 0, 1]])
    euler = verify_eulerian(odd_pairs, field, 1)
    assert euler == oracle_eulerian(odd_pairs, field, 1)
    assert euler == EulerianViolation((0,), "pair-count", (0,), (1,), 2, 1.5)

    # row 0 is the cycle 0011 (two transitions, lambda 1), row 1 alternates
    # (transition 1 only, lambda 2): both uniform, at different lambdas
    mixed = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])
    euler = verify_eulerian(mixed, field, 1)
    assert euler == oracle_eulerian(mixed, field, 1)
    assert euler == EulerianViolation((1,), "pair-count", None, None, 2, 1)
    assert verify_strength(mixed, 2, 1) == 2   # so the pair judge decides


def test_one_pair_block_verdicts_at_m3():
    """On the GF(4) m = 3 Eulerian array (n = 21, N = 4096), a column
    shuffle of it and a one-symbol tamper, counts in blocks of one row
    pair give the pinned verdicts: lambda, gensets, first violation."""
    field = FIELDS[4]
    base = _eulerian_entries(hamming_code(field, 3).dual())
    rng = np.random.default_rng(18)
    tampered = base.copy()
    tampered[7, 1000] = (tampered[7, 1000] + 1) % 4
    arrays = {"valid": base, "shuffled": base[:, rng.permutation(base.shape[1])],
              "tampered": tampered}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oa_module, "_BLOCK_KEYS", base.shape[1])
        verdicts = [(verify_strength(a, 4, 2), verify_eulerian(a, field, 2))
                    for a in arrays.values()]
    (lam, cert), (shuffled_lam, shuffled), (bad_lam, bad) = verdicts
    assert lam == shuffled_lam == 256 and cert.lam == 256
    assert cert.edge_multiplicity == 16 and len(cert.gensets) == 210
    assert all(len(gens) == 16 for gens in cert.gensets.values())
    assert isinstance(shuffled, EulerianViolation)
    assert isinstance(bad_lam, StrengthViolation) and bad == bad_lam


# ---------------------------------------------------------------------------
# Pair histograms: factored through the distinct columns, or counted
# ---------------------------------------------------------------------------

class Recorder:
    """Stands in for a counter, `subset_histograms(digits, base, subsets)`
    or `pair_histograms(entries, field, subsets)`: runs it and keeps each
    call's (columns, base or field, subsets, counts) in `calls`."""

    def __init__(self, real):
        self.real = real
        self.calls = []

    def __call__(self, digits, base, subsets):
        counts = self.real(digits, base, subsets)
        self.calls.append((digits.shape[1], base, list(subsets), counts.copy()))
        return counts


def spied_pair_histograms(entries, field, subsets):
    """(counts, (columns, base) of each `subset_histograms` call) of one
    `pair_histograms` call: two symbol counts over the |U| and |W|
    distinct columns, or one count of the N pair digits."""
    spy = Recorder(oa_module.subset_histograms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(euler_module, "subset_histograms", spy)
        counts = pair_histograms(entries, field, subsets)
    return counts, [(columns, base) for columns, base, _, _ in spy.calls]


def factors_oracle(entries, field):
    """Whether every (vertex column, transition column) pair of the array
    occurs equally often, every pair of a distinct vertex column and a
    distinct transition column included: the product structure, decided
    on Python tuples."""
    vertices = list(map(tuple, entries.T.tolist()))
    steps = list(map(tuple, transitions_oracle(entries, field).T.tolist()))
    pairs = Counter(zip(vertices, steps))
    return (len(pairs) == len(set(vertices)) * len(set(steps))
            and len(set(pairs.values())) == 1)


@settings(max_examples=60, deadline=None)
@given(case=arrays(), data=st.data())
def test_pair_histograms_equal_direct_pair_count(case, data):
    """`pair_histograms` equals the direct count of the pair digits bit for
    bit, for subsets in any order, repeats allowed.  It factors exactly
    when the product-structure oracle says the columns do: always for a
    valid array, never for a one-symbol tamper; a shuffled or random array
    factors only by chance (a short row of few symbols)."""
    q, t, entries, kind, _ = case
    field = FIELDS[q]
    n, N = entries.shape
    subsets = data.draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=t, max_size=t)
        .map(lambda rows: tuple(sorted(rows))), min_size=1, max_size=12))
    counts, calls = spied_pair_histograms(entries, field, subsets)
    expected = oa_module.subset_histograms(pair_digits(entries, field), q * q, subsets)
    assert counts.dtype == expected.dtype
    assert np.array_equal(counts, expected)
    factored = [b for _, b in calls] == [q, q]
    assert factored == factors_oracle(entries, field)
    if not factored:
        assert calls == [(N, q * q)]
    if kind == "valid":
        assert factored
    if kind == "tampered":
        assert not factored


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_tiled_array_factors_with_edge_multiplicity_two(q):
    """Two copies of an Eulerian array side by side walk every edge twice
    as often: the pair histograms factor with c doubled, and equal the
    direct count and twice the single array's."""
    field = FIELDS[q]
    base, t = BASES[q][0]
    subsets = list(itertools.combinations(range(base.shape[0]), t))[::-1]
    single, _ = spied_pair_histograms(base, field, subsets)
    tiled = np.tile(base, (1, 2))
    counts, calls = spied_pair_histograms(tiled, field, subsets)
    assert [b for _, b in calls] == [q, q]
    assert np.array_equal(counts, oa_module.subset_histograms(
        pair_digits(tiled, field), q * q, subsets))
    assert np.array_equal(counts, 2 * single)


def test_code_array_counts_only_distinct_columns():
    """On the GF(4) m = 3 code-built array (N = 4096, 64 codewords) the
    counter sees |U| + |W| = 64 + 64 columns; on its column shuffle it sees
    the N pair digits.  Both give the verifier's direct counts."""
    field = FIELDS[4]
    base = _eulerian_entries(hamming_code(field, 3).dual())
    shuffled = base[:, np.random.default_rng(18).permutation(base.shape[1])]
    subsets = list(itertools.combinations(range(base.shape[0]), 2))
    for entries, seen in ((base, [(64, 4), (64, 4)]), (shuffled, [(4096, 16)])):
        counts, calls = spied_pair_histograms(entries, field, subsets)
        assert calls == seen
        assert np.array_equal(counts, oa_module.subset_histograms(
            pair_digits(entries, field), 16, subsets))


def test_too_many_distinct_columns_build_no_edge_count():
    """A random array whose |U| |W| exceeds N has no multiplicity matrix
    to count: `pair_histograms` makes no bincount of its own and counts
    the pair digits, while a code-built array's edge count is its one
    bincount."""
    field = FIELDS[4]
    rng = np.random.default_rng(3)
    random = rng.integers(0, 4, size=(6, 64))
    steps = transitions_oracle(random, field)
    assert len({*map(tuple, random.T.tolist())}) * len({*map(tuple, steps.T.tolist())}) > 64
    bincount, callers = np.bincount, []

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return bincount(*args, **kwargs)

    subsets = list(itertools.combinations(range(6), 2))
    direct = oa_module.subset_histograms(pair_digits(random, field), 16, subsets)
    code = BASES[4][0][0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "bincount", spy)
        counts, calls = spied_pair_histograms(random, field, subsets)
        assert "pair_histograms" not in callers and calls == [(64, 16)]
        spied_pair_histograms(code, field, [(0, 1)])
    assert np.array_equal(counts, direct)
    assert callers.count("pair_histograms") == 1


def assert_tuple_partition(array, ids, where):
    """ids numbers the columns of array exactly as their Python tuples
    tell them apart, and column where[i] is one numbered i."""
    first = {}
    oracle = [first.setdefault(c, len(first)) for c in map(tuple, array.T.tolist())]
    assert len(where) == len(first) == len(set(ids.tolist()))
    assert len(set(zip(oracle, ids.tolist()))) == len(first)
    assert np.array_equal(ids[where], np.arange(len(where)))


@pytest.mark.parametrize("block", [None, 1, 3])
@pytest.mark.parametrize("change", ["none", "row-last", "row-middle", "tamper"])
def test_column_ids_equal_tuple_partition(change, block):
    """On the GF(4) m = 3 code-built array (21 x 4096, 64 distinct columns),
    the array with an independent random row appended last or inserted in
    the middle (a refinement after many matching rows, or before them),
    and the array with its last symbol changed, `_column_ids` numbers the
    columns and the transition columns as tuples do, with rows checked in
    blocks of at most 1 or 3 rows or by the default budget.  Numbered
    together, the changed arrays' distinct counts multiply past N only at
    the changed row, so there is no numbering; the code array's is
    the product 64 * 64 = N."""
    field = FIELDS[4]
    entries = _eulerian_entries(hamming_code(field, 3).dual())
    n, N = entries.shape
    row = np.random.default_rng(28).integers(0, 4, size=N)
    if change == "tamper":
        entries = entries.copy()
        entries[-1, -1] ^= 1
    elif change != "none":
        entries = np.insert(entries, n if change == "row-last" else n // 2, row, axis=0)
    steps = transitions(entries, field)
    with pytest.MonkeyPatch.context() as mp:
        if block:
            mp.setattr(euler_module, "_BLOCK_KEYS", block * N)
        for array in (entries, steps):
            (ids, where), = euler_module._column_ids((array,), 4, N)
            assert_tuple_partition(array, ids, where)
        both = euler_module._column_ids((entries, steps), 4, N)
    if change == "none":
        for array, (ids, where) in zip((entries, steps), both):
            assert_tuple_partition(array, ids, where)
            assert len(where) == 64
    else:
        assert both is None


# ---------------------------------------------------------------------------
# Every histogram the verifiers judge, paired rows or single
# ---------------------------------------------------------------------------

def transitions_oracle(sub, field):
    """The two-table form of `euler.transitions`."""
    return field.add_table[np.roll(sub, -1, 1), field.neg_table[sub]]


def pair_digits(entries, field):
    """n x N intp digits symbol * q + transition, base q^2, of every (row,
    column): the (vertex, transition) encoding whose histograms
    `pair_histograms` returns, from the two-table transitions."""
    digits = field.q * np.asarray(entries, dtype=np.intp)
    return digits + transitions_oracle(entries, field)


def pair_histograms_oracle(entries, field, subsets):
    """(len(subsets), q^(2t)) pair histograms counted column by column on
    Python ints: no numpy dtype that could wrap."""
    q, rows = field.q, entries.tolist()
    N = len(rows[0])
    out = np.zeros((len(subsets), q ** (2 * len(subsets[0]))), dtype=np.intp)
    for i, subset in enumerate(subsets):
        for j in range(N):
            key = 0
            for r in subset:
                v, nxt = rows[r][j], rows[r][(j + 1) % N]
                key = key * q * q + v * q + field.sub(nxt, v)
            out[i, key] += 1
    return out


@pytest.mark.parametrize("q", [16, 25])
@pytest.mark.parametrize("t", [1, 2])
def test_pair_histograms_at_wide_pair_digits(q, t):
    """Pair digits reach 255 at q = 16 and 624 at q = 25, past a byte: on
    random arrays, on column shuffles of a code-built Eulerian array (both
    counted directly) and on that array (factored), `pair_histograms` over
    every t-row subset equals the per-column Python count."""
    field = field_from_order(q)
    gen = np.arange(1, 4, dtype=np.int64)[:, None]        # rows 1, 2, 3 x message
    built = eulerian_oa_from_code(LinearCode(field, gen), euler_cycle_full(field, 1),
                                  1).entries
    rng = np.random.default_rng(q)
    arrays = [built, built[:, rng.permutation(built.shape[1])],
              rng.integers(0, q, size=(3, 2 * q), dtype=np.uint8)]
    subsets = list(itertools.combinations(range(3), t))
    for entries in arrays:
        counts = pair_histograms(entries, field, subsets)
        assert np.array_equal(counts, pair_histograms_oracle(entries, field, subsets))


@st.composite
def counted_arrays(draw):
    """(q, t, entries): rotated row subsets of the Eulerian arrays and
    random 16-row arrays, with N on both sides of base^(t+1) for both
    verifiers' bases (q and q^2) and later-row counts of both parities."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t_max = 3 if q <= 4 else 2
    if draw(st.booleans()):
        base, _ = draw(st.sampled_from(BASES[q]))
        n_base, N = base.shape
        n = draw(st.integers(1, min(n_base, 6)))
        entries = np.roll(base[rng.permutation(n_base)[:n]],
                          int(rng.integers(N)), axis=1)
    else:
        n = 16
        N = draw(st.sampled_from([q**e for e in range(1, 12) if q**e <= 2048]))
        entries = rng.integers(0, q, size=(n, N))
    t = draw(st.integers(1, min(t_max, n)))
    return q, t, entries


@settings(max_examples=40, deadline=None)
@given(case=counted_arrays(), budget=st.sampled_from([0, 1, 2, 3, 7, 40, "key"]))
def test_every_subset_histogram_matches_per_subset_oracle(case, budget):
    """Each verifier asks its counter once for every subset in
    lexicographic order (`subset_histograms` for strength,
    `pair_histograms` for pairs), and row i of the count array is exactly
    subset i's histogram; the verdicts judged in bulk from it are the
    per-subset judges' (lambda, gensets or the first violation).  Blocks
    hold the default budget, one, two or three rows' keys (a prefix's later
    rows cut across blocks), 7 or 40 (several short prefixes in a block,
    cut anywhere), or a single key (one job per block)."""
    q, t, entries = case
    field = FIELDS[q]
    N = entries.shape[1]
    strength_counter = Recorder(oa_module.subset_histograms)
    pair_counter = Recorder(euler_module.pair_histograms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oa_module, "subset_histograms", strength_counter)
        mp.setattr(euler_module, "pair_histograms", pair_counter)
        if budget == "key":
            mp.setattr(oa_module, "_BLOCK_KEYS", 1)
        elif budget:
            mp.setattr(oa_module, "_BLOCK_KEYS", budget * max(N, q ** (2 * t)))
        strength = verify_strength(entries, q, t)
        euler = verify_eulerian(entries, field, t)
    (_, base_s, subsets_s, counts_s), = strength_counter.calls
    (_, field_e, subsets_e, counts_e), = pair_counter.calls
    assert (base_s, field_e) == (q, field)
    subsets = list(itertools.combinations(range(entries.shape[0]), t))
    assert subsets_s == subsets_e == subsets
    # the Eulerian digits, symbol * q + transition, from the two-table form
    pairs = q * entries + transitions_oracle(entries, field)
    for counts, digits, base in ((counts_s, entries, q), (counts_e, pairs, q * q)):
        assert counts.shape == (len(subsets), base**t)
        for row, rows in zip(counts, subsets):
            expected = column_counts(digits[list(rows)], base)
            assert row.dtype == expected.dtype
            assert np.array_equal(row, expected)
    # oracle_strength and oracle_eulerian judge subset by subset with
    # check_rows and check_euler_rows
    assert strength == oracle_strength(entries, q, t)
    expected = oracle_verdict(entries, field, t)
    if isinstance(euler, EulerianCertificate):
        assert (euler.edge_multiplicity, euler.gensets) == expected
    else:
        assert euler == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 256])
@pytest.mark.parametrize("shape", [(5, 37), (3, 1), (1, 37)])
def test_transitions_match_two_table_formula(q, shape):
    """The XORs (q = 2, 4, 8, 16, 256) and the flat-table gather (odd q)
    equal the two-table form on C-ordered, Fortran-ordered,
    column-gathered and uint8 inputs, the gather in one block of rows or
    in blocks of one and two rows, and return uint8 in C order."""
    field = FIELDS[q] if q in FIELDS else field_from_order(q)
    sub = np.random.default_rng(q).integers(0, q, size=shape)
    expected = transitions_oracle(sub, field)
    copies = [np.ascontiguousarray(sub), np.asfortranarray(sub),
              sub[:, np.arange(shape[1])], sub.astype(np.uint8)]
    for block in (euler_module._BLOCK_KEYS, shape[1], 2 * shape[1] + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(euler_module, "_BLOCK_KEYS", block)
            for a in copies:
                got = transitions(a, field)
                assert got.dtype == expected.dtype == np.uint8
                assert np.array_equal(got, expected)
                assert got.flags["C_CONTIGUOUS"]


# ---------------------------------------------------------------------------
# Any list of subsets: the averaging layer's requests
# ---------------------------------------------------------------------------

# Keys per block of the oracle below, 2^15 as in the counter it was
SUPPORT_BLOCK_KEYS = 2**15


def support_histograms_oracle(digits, base, supports):
    """(S, base^t) histograms of the columns of S row subsets of one size t.

    The averaging layer's own counter before it shared the verifiers' one:
    row i of the result counts the columns of digits[supports[i]], encoded
    base `base` with the first row of the subset most significant.  Each
    block of subsets is one bincount of at most `SUPPORT_BLOCK_KEYS` keys
    (one subset when N alone is more), each subset's keys offset into its
    own bins.
    """
    digits = np.asarray(digits)
    supports = np.asarray(supports, dtype=np.intp)
    (S, t), N = supports.shape, digits.shape[1]
    width = base**t
    per_block = max(1, SUPPORT_BLOCK_KEYS // max(N, width))
    out = np.empty((S, width), dtype=np.intp)
    for lo in range(0, S, per_block):
        rows = supports[lo:lo + per_block]
        keys = digits[rows[:, 0]].astype(np.intp, copy=False)
        for i in range(1, t):
            keys *= base
            keys += digits[rows[:, i]]
        keys += width * np.arange(len(rows))[:, None]
        out[lo:lo + len(rows)] = np.bincount(
            keys.ravel(), minlength=len(rows) * width).reshape(len(rows), width)
    return out


@st.composite
def subset_requests(draw):
    """(digits, base, subsets): random digits in bases 2 to 81 with N on
    both sides of base^(t+1), and up to a dozen strictly increasing t-row
    subsets in any order, repeats allowed, so that prefixes skip rows and
    a paired group may hold one requested row."""
    base = draw(st.sampled_from([2, 3, 4, 9, 16, 81]))
    t = draw(st.integers(1, 3 if base <= 16 else 2))
    n = draw(st.integers(t, 8))
    sizes = sorted({1, 3, base**t, base ** (t + 1), base ** (t + 1) + 1})
    N = draw(st.sampled_from([size for size in sizes if size <= 4097]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    digits = rng.integers(0, base, size=(n, N))
    subsets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=t, max_size=t)
                            .map(lambda rows: tuple(sorted(rows))), max_size=12))
    return digits, base, subsets


# With base^(t+1) <= N the six rows pair as (0, 1), (2, 3), (4, 5): one
# requested row of a pair (3 and 5 after prefix 0, which skips row 1), rows
# asked out of order (5 before 2 after prefix 1) and the row that shares
# its pair with the prefix (3 after 2)
PAIRED_REQUEST = (np.random.default_rng(7).integers(0, 4, size=(6, 64)), 4,
                  [(0, 3), (1, 5), (1, 2), (2, 3), (0, 5), (2, 5)])


@settings(max_examples=80, deadline=None)
@given(case=subset_requests(), budget=st.sampled_from([0, 1, 2, 3]))
@example(case=PAIRED_REQUEST, budget=0)
@example(case=PAIRED_REQUEST, budget=1)
def test_any_subsets_match_support_histograms_oracle(case, budget):
    """For any list of subsets the counter returns one row per subset, in
    the order given, equal to the oracle's histogram bit for bit: blocks
    of one to three groups or the default budget (0)."""
    digits, base, subsets = case
    N = digits.shape[1]
    t = len(subsets[0]) if subsets else 1
    bins = base ** (t + 1) if base ** (t + 1) <= N else base**t
    with pytest.MonkeyPatch.context() as mp:
        if budget:
            mp.setattr(oa_module, "_BLOCK_KEYS", budget * max(N, bins))
        counts = oa_module.subset_histograms(digits, base, subsets)
    if subsets:
        expected = support_histograms_oracle(digits, base, subsets)
        assert counts.dtype == expected.dtype
        assert np.array_equal(counts, expected)
    else:
        assert counts.shape == (0, 0)
