"""The identity registry: every named check passes, and faults are caught."""

from __future__ import annotations

import dataclasses

import pytest

from beattylab import identities
from beattylab.qfield import ONE, PHI


def test_registry_contents():
    names = identities.identity_names()
    assert len(names) == len(set(names))
    for expected in (
        "frac-lower",
        "frac-upper",
        "nested-floors",
        "upper-gap",
        "frac-sum",
        "summary-lower",
        "summary-upper",
        "summary-d",
        "summary-c",
        "d-interval",
        "c-interval",
        "d-case",
        "c-odd-case",
        "fib-floor",
        "phi-power",
        "cassini",
        "klm-grid",
        "fib-shift",
        "fib-shift-converse",
        "col-d-frac",
        "col-c-frac",
        "col-s-frac",
        "col-sum",
    ):
        assert expected in names


def test_all_identities_pass_at_small_scale():
    for name in identities.identity_names():
        limit = 60 if name == "klm-grid" else 300
        summary = identities.summarize_identity(name, limit)
        assert summary.ok, (name, summary.first_failure)
        assert summary.checks > 0


@pytest.mark.parametrize("name", identities.identity_names())
def test_scan_stamps_the_name_and_every_index_in_order(name):
    # checkers return (case, lhs, rhs[, passed]); the scan adds the name and n
    records = list(identities.iter_identity_checks(name, 40))
    cap = identities.IDENTITIES[name].index_cap
    assert {record.identity for record in records} == {name}
    indices = [record.n for record in records]
    assert indices == sorted(indices)
    assert list(dict.fromkeys(indices)) == list(range(1, min(40, cap or 40) + 1))


def test_fault_injection_fails_at_first_index():
    opts = identities.CheckOptions(fault_offset=1)
    summary = identities.summarize_identity("klm-grid", 5, opts)
    assert summary.failures == 5
    assert summary.first_failure is not None
    assert summary.first_failure.n == 1


def test_record_serialization_shape():
    record = next(identities.iter_identity_checks("frac-lower", 1))
    obj = record.to_json_dict()
    assert set(obj) == {"identity", "n", "case", "lhs", "rhs", "pass"}
    assert obj["pass"] is True
    assert isinstance(obj["lhs"], dict)  # exact field element as digit strings
    assert set(obj["lhs"]) >= {"p", "q", "d"}

    record = next(identities.iter_identity_checks("nested-floors", 1))
    obj = record.to_json_dict()
    assert isinstance(obj["lhs"], str)  # plain integers serialize as strings


def test_index_caps_apply():
    assert identities.summarize_identity("cassini", identities.MAX_N).checks == 200
    assert identities.summarize_identity("phi-power", identities.MAX_N).checks == 400


def test_scan_bounds_come_before_any_checker(monkeypatch):
    # an unknown name and a limit outside [1, MAX_N] raise before any checker
    # runs, with the limit messages of the partition and census scans
    def no_check(*args):
        raise AssertionError("a checker ran")

    for name, definition in identities.IDENTITIES.items():
        monkeypatch.setitem(identities.IDENTITIES, name, dataclasses.replace(definition, checker=no_check))
    cases = [
        ("cassini", 0, "limit must be positive, got 0"),
        ("klm-grid", -5, "limit must be positive, got -5"),
        ("klm-grid", identities.MAX_N + 1, f"limit must be at most {identities.MAX_N}, got {identities.MAX_N + 1}"),
        ("cassini", 10**19, f"limit must be at most {identities.MAX_N}, got {10**19}"),
        ("no-such", 5, f"unknown identity 'no-such'; choose from {identities.identity_names()}"),
    ]
    for name, limit, message in cases:
        for scan in (identities.iter_identity_checks, identities.summarize_identity):
            with pytest.raises(ValueError) as info:
                list(scan(name, limit))
            assert str(info.value) == message
    with pytest.raises(AssertionError, match="a checker ran"):
        identities.summarize_identity("klm-grid", identities.MAX_N)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rs": (2,)},
        {"rs": (1, 4)},
        {"rs": (-1,)},
        {"rs": (identities.FIB_INDEX_CAP + 2,)},
        {"bound": 0},
        {"bound": identities.CONVERSE_BOUND_CAP + 1},
    ],
    ids=repr,
)
def test_scan_rejects_out_of_range_options(monkeypatch, kwargs):
    # the shift indices and the converse bound are checked before the name
    # and the limit, and before any checker runs
    def no_check(*args):
        raise AssertionError("a checker ran")

    for name, definition in identities.IDENTITIES.items():
        monkeypatch.setitem(identities.IDENTITIES, name, dataclasses.replace(definition, checker=no_check))
    opts = identities.CheckOptions(**kwargs)
    field = "shift indices" if "rs" in kwargs else "converse search bound"
    for name, limit in (("fib-shift-converse", 5), ("no-such", 0)):
        for scan in (identities.iter_identity_checks, identities.summarize_identity):
            with pytest.raises(ValueError, match=field):
                list(scan(name, limit, opts))


def test_converse_respects_bound():
    opts = identities.CheckOptions(rs=(3,), bound=3)
    summary = identities.summarize_identity("fib-shift-converse", 1, opts)
    # the only solution at r = 3 is 4, which exceeds the bound, so both sides are empty
    assert summary.ok
    assert summary.checks == 1


def test_converse_scans_the_small_shift_indices_of_rs():
    # the brute-force scan runs at r = 1 and 3 of rs, or at both when rs has neither
    for rs, cases in (((3,), ["r=3"]), ((1, 3, 5, 7), ["r=1", "r=3"]), ((5, 9), ["r=1", "r=3"])):
        records = list(identities.iter_identity_checks("fib-shift-converse", 1, identities.CheckOptions(rs=rs)))
        assert [record.case.split(",")[0] for record in records] == cases
        assert all(record.passed for record in records)


def test_custom_shift_indices():
    opts = identities.CheckOptions(rs=(9, 11))
    summary = identities.summarize_identity("fib-shift", 50, opts)
    assert summary.ok
    assert summary.checks == 100


def test_phi_power_oracle_is_the_iterated_product():
    products = [ONE]
    for _ in range(identities.FIB_INDEX_CAP):
        products.append(products[-1] * PHI)
    identities._phi_product.cache_clear()
    # the deepest index first: every smaller product is filled on the way down
    assert identities._phi_product(identities.FIB_INDEX_CAP) == products[-1]
    assert [identities._phi_product(n) for n in range(identities.FIB_INDEX_CAP + 1)] == products
    deepest = identities.FIB_INDEX_CAP
    record = next(r for r in identities.iter_identity_checks("phi-power", deepest) if r.n == deepest)
    assert (record.case, record.rhs, record.passed) == ("vs-iterated-product", products[-1], True)
