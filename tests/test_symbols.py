"""Symbols are uint8 from field to file and back.

Every symbol is an element of GF(q) with q <= FIELD_ORDER_CAP = 256, so the
field tables, codewords, array entries, transitions, schedule indices and
the loaded array hold one byte per symbol; keys and counts stay intp.  The
GF(4) m = 4 Eulerian array (85 x 65536) bounds the memory each stage takes
per symbol, measured with tracemalloc, which sees numpy's buffers.  Every
result on an int64 copy of an array equals the result on its uint8 array.
"""

import tracemalloc

import numpy as np
import pytest

from eoa import config
from eoa.codes import hamming_code
from eoa.decoupling import (bangbang_average, bangbang_schedule, euler_schedule,
                            eulerian_average, random_drift, write_schedule)
from eoa.euler import (euler_cycle_full, eulerian_oa_from_code, read_eulerian_oa,
                       transitions, verify_eulerian, write_eulerian_oa)
from eoa.gf import gf_new
from eoa.oa import OrthogonalArray, format_oa, oa_from_code

F4, F9 = gf_new(2, 2), gf_new(3, 2)


@pytest.fixture(scope="module")
def m4(tmp_path_factory):
    """(code, Eulerian OA, its file) at GF(4) m = 4."""
    code = hamming_code(F4, 4).dual()
    eoa = eulerian_oa_from_code(code, euler_cycle_full(F4, code.k), 2)
    path = tmp_path_factory.mktemp("m4") / "eoa65536.txt"
    write_eulerian_oa(path, eoa)
    return code, eoa, path


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while fn(*args) runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_field_tables_are_uint8():
    for field in (gf_new(2, 1), F4, F9, gf_new(2, 8)):
        for table in (field.add_table, field.mul_table, field.neg_table,
                      field.inv_table):
            assert table.dtype == np.uint8


def test_characteristic_two_adds_by_xor():
    """In every characteristic-2 field up to FIELD_ORDER_CAP a symbol's bits
    are its coefficients over GF(2): add_table[a, b] == a ^ b and every
    symbol is its own negative, which `transitions` relies on."""
    for m in range(1, config.FIELD_ORDER_CAP.bit_length()):
        field = gf_new(2, m)
        symbols = np.arange(field.q)
        assert field.xor_add
        assert np.array_equal(field.add_table, symbols[:, None] ^ symbols)
        assert np.array_equal(field.neg_table, symbols)
    assert field.q == config.FIELD_ORDER_CAP
    assert not F9.xor_add and not gf_new(3, 1).xor_add


@pytest.mark.parametrize("q, bad", [(4, -1), (4, 4), (9, -1), (9, 9)])
def test_out_of_range_symbol_is_refused_before_transitions(q, bad):
    """The callers of `transitions` range-check the array first: a symbol
    outside [0, q), which an XOR would not notice, is a one-line error
    from `verify_eulerian` and from `euler_schedule`."""
    field = {4: F4, 9: F9}[q]
    code = hamming_code(field, 2).dual()
    entries = eulerian_oa_from_code(code, euler_cycle_full(field, code.k),
                                    2).entries.astype(np.int64)
    entries[1, 2] = bad
    low, high = min(0, bad), max(q - 1, bad)
    with pytest.raises(ValueError) as excinfo:
        verify_eulerian(entries, field, 2)
    assert str(excinfo.value) == "entries must be symbols in [0, q)"
    with pytest.raises(ValueError) as excinfo:
        euler_schedule((entries, q), 0.1)
    assert str(excinfo.value) == (f"array symbols span [{low}, {high}], "
                                  f"outside [0, {q})")


def test_symbol_arrays_are_uint8(m4):
    """Codewords, built and reread entries, transitions and the index of
    both schedule kinds hold one byte per symbol."""
    code, eoa, path = m4
    oa = oa_from_code(code, 3)
    arrays = [code.codewords(), oa.entries, eoa.entries,
              read_eulerian_oa(path).entries, transitions(eoa.entries, F4),
              euler_schedule(eoa, 0.1).index, bangbang_schedule(oa, 0.1).index]
    assert [a.dtype for a in arrays] == [np.uint8] * len(arrays)


@pytest.mark.parametrize("stage, budget", [
    (lambda eoa, path: transitions(eoa.entries, F4), 3),
    (lambda eoa, path: verify_eulerian(eoa.entries, F4, 2), 3),
    (lambda eoa, path: euler_schedule(eoa, 0.1), 3),
    (lambda eoa, path: read_eulerian_oa(path), 8)],
    ids=["transitions", "verify_eulerian", "euler_schedule", "read_eulerian_oa"])
def test_peak_bytes_per_symbol(m4, stage, budget):
    """Peak traced memory per symbol of the m = 4 array: no stage builds
    an intp or int64 array of the whole array (8 or 16 bytes per symbol
    with int64 symbols; 16 and 24 before symbols were uint8)."""
    _, eoa, path = m4
    assert traced_peak(stage, eoa, path) <= budget * eoa.entries.size


def _copies(eoa, rng):
    """The array, a column shuffle and a one-symbol tamper, each as uint8
    and as an int64 copy."""
    entries = eoa.entries
    tampered = entries.copy()
    tampered[0, 0] = (tampered[0, 0] + 1) % eoa.oa.q
    for a in (entries, entries[:, rng.permutation(entries.shape[1])], tampered):
        yield a, a.astype(np.int64)


@pytest.mark.parametrize("field, m, denv, quadrature", [
    (F4, 2, 2, True), (F4, 3, 2, False), (F9, 2, 2, False)])
def test_int64_and_uint8_copies_agree(tmp_path, field, m, denv, quadrature):
    """Verdict reprs, file text, averaging reports and schedule files are
    the same on the uint8 array and on its int64 copy: the array, its
    column shuffle and a one-symbol tamper."""
    code = hamming_code(field, m).dual()
    eoa = eulerian_oa_from_code(code, euler_cycle_full(field, code.k), 2)
    q, n, d = field.q, code.n, field.coord_dim()
    drift = random_drift(n, d, 2, denv, seed=1)
    for small, wide in _copies(eoa, np.random.default_rng(q)):
        assert small.dtype == np.uint8 and wide.dtype == np.int64
        assert repr(verify_eulerian(small, field, 2)) == repr(verify_eulerian(wide, field, 2))
        reports = []
        for a in (small, wide):
            pair = (a, q)
            runs = [bangbang_average(pair, drift), eulerian_average(pair, drift, 0.1)]
            if quadrature:
                runs.append(eulerian_average(pair, drift, 0.1, method="quadrature"))
            files = []
            for kind, sched in (("bb", bangbang_schedule(pair, 0.1)),
                                ("eu", euler_schedule(pair, 0.1))):
                path = tmp_path / f"{kind}-{a.dtype}.json"
                write_schedule(path, sched)
                files.append(path.read_bytes())
            reports.append((list(map(repr, runs)), files))
        assert reports[0] == reports[1]
    oa = eoa.oa
    wide_oa = OrthogonalArray(oa.q, oa.n, oa.N, oa.t, oa.lam, oa.entries.astype(np.int64))
    assert format_oa(oa) == format_oa(wide_oa)

