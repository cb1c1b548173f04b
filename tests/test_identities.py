"""The identity registry: every named check passes, and faults are caught."""

from __future__ import annotations

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
    assert identities.summarize_identity("cassini", 10**6).checks == 200
    assert identities.summarize_identity("phi-power", 10**6).checks == 400


def test_converse_respects_bound():
    opts = identities.CheckOptions(converse_rs=(5,), bound=6)
    summary = identities.summarize_identity("fib-shift-converse", 1, opts)
    # the only solution is 7, which exceeds the bound, so both sides are empty
    assert summary.ok


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
    record = identities._check_phi_power(identities.FIB_INDEX_CAP, identities.CheckOptions())[0]
    assert (record.case, record.rhs, record.passed) == ("vs-iterated-product", products[-1], True)
