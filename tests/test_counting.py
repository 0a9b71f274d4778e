"""Blocked subset counting against the per-subset oracle.

`oa.subset_histograms` counts a whole block of t-row subsets with one
bincount, two later rows per key when the columns allow it; the oracle
below is the per-subset path it replaced: one `column_counts` (strength)
or `pair_counts` (Eulerian) call per row subset, judged by its own copy of
the uniformity checks.  Both counts left `src/` for test_decoupling.py,
where they are also the per-term oracles of the averaging kernel.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eoa import euler as euler_module, oa as oa_module
from eoa.codes import LinearCode, gf_matmul, hamming_code
from eoa.euler import (EulerianCertificate, EulerianViolation, certify_eulerian,
                       euler_cycle_full, transitions, verify_eulerian)
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
    kind = draw(st.sampled_from(["valid", "shuffled", "tampered", "random"]))
    if kind == "shuffled":
        entries = entries[:, rng.permutation(N)]
    elif kind == "tampered":
        i, j = int(rng.integers(n)), int(rng.integers(N))
        entries[i, j] = (entries[i, j] + int(rng.integers(1, q))) % q
    elif kind == "random":
        entries = rng.integers(0, q, size=entries.shape)
    return q, t, entries, kind, t <= strength


@settings(max_examples=60, deadline=None)
@given(case=arrays(), budget=st.sampled_from([1, 2, 3, 0]),
       threads=st.sampled_from(["1", "4"]))
def test_blocked_verifiers_match_per_subset_oracle(case, budget, threads):
    """Same lambda, edge multiplicity, gensets and first violation as the
    per-subset path, with blocks of 1 to 3 rows that split prefixes, and
    the full budget (0 here), serially and on four threads."""
    q, t, entries, kind, certified = case
    field = FIELDS[q]
    N = entries.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("EOA_THREADS", threads)
        if budget:
            mp.setattr(oa_module, "_BLOCK_KEYS", budget * max(N, q ** (2 * t)))
        strength = verify_strength(entries, q, t)
        euler = verify_eulerian(entries, field, t)
        paired = certify_eulerian(entries, field, t)
    assert strength == oracle_strength(entries, q, t)
    expected = oracle_eulerian(entries, field, t)
    if isinstance(euler, EulerianCertificate):
        assert (euler.edge_multiplicity, euler.gensets) == expected
        assert euler.lam == strength == N // q**t
    else:
        assert euler == expected
    # the paired verdicts: strength lambda read off the certificate, else
    # the strength pass's own verdict
    assert paired == (strength, euler)
    if kind == "valid" and certified:
        assert isinstance(euler, EulerianCertificate)
    if kind == "tampered" and certified:
        # any single-symbol tamper is rejected by both verifiers
        assert isinstance(strength, StrengthViolation)
        assert isinstance(euler, EulerianViolation)


@pytest.mark.parametrize("q", sorted(FIELDS))
@pytest.mark.parametrize("shuffle", [False, True])
def test_verdicts_do_not_depend_on_memory_layout(q, shuffle):
    """C-ordered, Fortran-ordered and column-gathered copies of one array
    give identical strength, Eulerian and paired verdicts."""
    field = FIELDS[q]
    base, t = BASES[q][0]
    if shuffle:
        base = base[:, np.random.default_rng(q).permutation(base.shape[1])]
    copies = [np.ascontiguousarray(base), np.asfortranarray(base),
              base[:, np.arange(base.shape[1])]]
    assert not copies[2].flags["C_CONTIGUOUS"]
    verdicts = [(verify_strength(a, q, t), verify_eulerian(a, field, t),
                 certify_eulerian(a, field, t)) for a in copies]
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert isinstance(verdicts[0][1], EulerianViolation) == shuffle


# ---------------------------------------------------------------------------
# Every histogram the judges see, paired rows or single
# ---------------------------------------------------------------------------

def transitions_oracle(sub, field):
    """The two-table form of `euler.transitions`."""
    return field.add_table[np.roll(sub, -1, 1), field.neg_table[sub]]


class Recorder:
    """Stands in for `subset_histograms`: runs it with a judge that records
    each subset's (counts, verdict), keeping every call in `calls`."""

    def __init__(self):
        self.real = oa_module.subset_histograms
        self.calls = []

    def __call__(self, digits, base, t, judge):
        seen = {}

        def recording_judge(rows, counts):
            verdict = judge(rows, counts)
            seen.setdefault(rows, []).append((counts.copy(), verdict))
            return verdict

        results = self.real(digits, base, t, recording_judge)
        self.calls.append((base, seen, results))
        return results


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
@given(case=counted_arrays(), budget=st.sampled_from([0, 1, 2, 3, "key"]),
       threads=st.sampled_from(["1", "4"]))
def test_every_subset_histogram_matches_per_subset_oracle(case, budget, threads):
    """Each judge gets exactly the per-subset histogram, once per subset,
    and returns the per-subset verdict; the results come back in
    lexicographic order.  Blocks hold the default budget, one, two or
    three rows' keys, or a single key (one group per block)."""
    q, t, entries = case
    field = FIELDS[q]
    N = entries.shape[1]
    recorder = Recorder()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("EOA_THREADS", threads)
        mp.setattr(oa_module, "subset_histograms", recorder)
        mp.setattr(euler_module, "subset_histograms", recorder)
        if budget == "key":
            mp.setattr(oa_module, "_BLOCK_KEYS", 1)
        elif budget:
            mp.setattr(oa_module, "_BLOCK_KEYS", budget * max(N, q ** (2 * t)))
        verify_strength(entries, q, t)
        verify_eulerian(entries, field, t)
    (base_s, seen_s, results_s), (base_e, seen_e, results_e) = recorder.calls
    assert (base_s, base_e) == (q, q * q)
    subsets = list(itertools.combinations(range(entries.shape[0]), t))
    # the Eulerian digits, symbol * q + transition, from the two-table form
    pairs = q * entries + transitions_oracle(entries, field)
    for seen, results in ((seen_s, results_s), (seen_e, results_e)):
        assert sorted(seen) == subsets
        assert all(len(calls) == 1 for calls in seen.values())
        assert results == [seen[rows][0][1] for rows in subsets]
    for rows in subsets:
        counts, verdict = seen_s[rows][0]
        expected = column_counts(entries[list(rows)], q)
        assert counts.dtype == expected.dtype
        assert np.array_equal(counts, expected)
        assert verdict == check_rows(entries, q, t, rows)
        counts, verdict = seen_e[rows][0]
        expected = column_counts(pairs[list(rows)], q * q)
        assert counts.dtype == expected.dtype
        assert np.array_equal(counts, expected)
        assert verdict == check_euler_rows(entries, field, t, rows)


@pytest.mark.parametrize("q", [*sorted(FIELDS), 16, 256])
@pytest.mark.parametrize("shape", [(5, 37), (3, 1)])
def test_transitions_match_two_table_formula(q, shape):
    """The flat-table gather equals the two-table form on C-ordered,
    Fortran-ordered, column-gathered and uint8 inputs, and returns C order."""
    field = FIELDS[q] if q in FIELDS else field_from_order(q)
    sub = np.random.default_rng(q).integers(0, q, size=shape)
    expected = transitions_oracle(sub, field)
    copies = [np.ascontiguousarray(sub), np.asfortranarray(sub),
              sub[:, np.arange(shape[1])], sub.astype(np.uint8)]
    for a in copies:
        got = transitions(a, field)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert got.flags["C_CONTIGUOUS"]
