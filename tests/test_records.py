"""Data-model contracts of the record classes, and what importing the CLI loads.

The records are NamedTuples, or a __slots__ class for PartitionSpec,
whose generator is an exact alpha or a tuple of terms, instead of frozen
dataclasses, which generate their methods with exec when the module is
imported.  Each one must still behave like a frozen value: equal fields
give equal values and hashes, attributes cannot be assigned, and copy,
pickle and repr keep working.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import beattylab
from beattylab import cli, identities, partition, three_set
from beattylab.qfield import ONE, PHI, PHI_CUBED, SQRT2, QuadraticReal


def _phi_spec() -> partition.PartitionSpec:
    return partition.PartitionSpec(3, QuadraticReal(1, 1, 2))  # an equal, separately built PHI


def _density_entry() -> three_set.DensityEntry:
    return three_set.DensityEntry("a-in-C", 3, 5, QuadraticReal(-1, 1, 2), "proved-density")


# (factory, field names in repr order, hashable); each factory builds a new
# instance with equal fields every time it is called.  A key is the class
# name, with "-case" added where one class has two entries.
RECORDS = {
    "PartitionSpec": (_phi_spec, ("n", "generator"), True),
    "PartitionSpec-explicit": (lambda: partition.PartitionSpec(3, [4, 11, 15]), ("n", "generator"), True),
    "Decomposition": (lambda: partition.Decomposition(2, 5, (1, -1)), ("column", "index", "signs"), True),
    "VerifyReport": (
        lambda: partition.VerifyReport(3, "h=phi", 20, True, True, None),
        ("n", "generator", "limit", "covered", "disjoint", "first_defect"),
        True,
    ),
    "Census": (
        lambda: three_set.Census(5, {"AAA": 3, "BAB": 2}, {"AAA": 2, "BAB": 1}),
        ("total", "counts", "first_index"),
        False,
    ),
    "DensityEntry": (_density_entry, ("name", "count", "total", "expected", "status"), True),
    "DensityReport": (lambda: three_set.DensityReport(5, (_density_entry(),)), ("total", "entries"), True),
    "IdentityCheck": (
        lambda: identities.IdentityCheck("frac-lower", 1, "", QuadraticReal(3, -1, 2), QuadraticReal(3, -1, 2), True),
        ("identity", "n", "case", "lhs", "rhs", "passed"),
        True,
    ),
    "CheckOptions": (
        lambda: identities.CheckOptions(rs=(1, 3), bound=40),
        ("rs", "bound", "fault_offset"),
        True,
    ),
    "IdentitySummary": (
        lambda: identities.IdentitySummary("cassini", 4, 0, None),
        ("name", "checks", "failures", "first_failure"),
        True,
    ),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecordContracts:
    def test_equal_fields_give_equal_values(self, name):
        factory, _, hashable = RECORDS[name]
        a, b = factory(), factory()
        assert a is not b and a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_attributes_cannot_be_assigned(self, name):
        factory, fields, _ = RECORDS[name]
        record = factory()
        with pytest.raises(AttributeError):
            setattr(record, fields[0], getattr(record, fields[-1]))
        with pytest.raises(AttributeError):
            record.unlisted = 1
        with pytest.raises(AttributeError):
            delattr(record, fields[0])

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
    def test_copy_and_pickle_round_trip(self, name, clone):
        record = RECORDS[name][0]()
        twin = clone(record)
        assert type(twin) is type(record) and twin == record
        assert repr(twin) == repr(record)

    def test_repr_lists_the_fields(self, name):
        factory, fields, _ = RECORDS[name]
        record = factory()
        inner = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
        assert repr(record) == f"{name.split('-')[0]}({inner})"


def test_partition_spec_generator_is_the_alpha_or_a_tuple():
    assert _phi_spec().generator == PHI
    assert partition.PartitionSpec(3, iter([4, 11])).generator == (4, 11)
    assert partition.PartitionSpec(3, [4, 11]) == partition.PartitionSpec(3, (4, 11))


def test_alpha_h_coordinates_stay_out_of_the_value():
    # the cached coordinates of the step h(k) = floor(k*alpha)
    a = _phi_spec()
    b = copy.copy(a)
    object.__setattr__(b, "_coords", None)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == f"PartitionSpec(n=3, generator={PHI!r})"
    assert a != partition.PartitionSpec(3, SQRT2) and a != partition.PartitionSpec(4, PHI)
    assert a != partition.PartitionSpec(3, (PHI,)) and a != (3, PHI)


def test_frequencies_are_exact_rationals():
    # the records hold integer counts only; the CLI writes count/total from
    # them, as {num, den} in JSON and rounded down to 12 places in CSV
    census = RECORDS["Census"][0]()
    entry = _density_entry()
    for count, total in ((census.counts["AAA"], census.total), (entry.count, entry.total), (0, 5), (1, 3), (2, 3)):
        written = Fraction(cli._frequency_string(count, total))
        assert 0 <= Fraction(count, total) - written < Fraction(1, 10**12), (count, total)
    assert cli._frequency_string(3, 5) == "0.600000000000" and cli._frequency_string(5, 5) == "1.000000000000"


def test_named_tuple_records_equal_plain_tuples():
    # unlike the frozen dataclasses they replace
    assert partition.Decomposition(2, 5, (1, -1)) == (2, 5, (1, -1))
    assert partition.PartitionSpec(3, PHI) != (3, PHI)


@pytest.mark.parametrize("n", [-1, 0, 1, partition.MAX_COLUMNS + 1])
def test_partition_spec_rejects_column_counts(n):
    with pytest.raises(ValueError, match="number of columns"):
        partition.PartitionSpec(n, PHI)


@pytest.mark.parametrize(
    "alpha",
    [QuadraticReal(0), QuadraticReal(1, 0, 2), QuadraticReal(2), QuadraticReal(3, -1, 1), PHI_CUBED],
    ids=str,
)
def test_alpha_h_rejects_alpha_outside_one_two(alpha):
    with pytest.raises(ValueError, match="1 <= alpha < 2"):
        partition.PartitionSpec(3, alpha)


@pytest.mark.parametrize("alpha", [ONE, PHI, SQRT2, QuadraticReal(199, 0, 100), QuadraticReal(-1, 1, 1)], ids=str)
def test_alpha_h_accepts_alpha_in_one_two(alpha):
    assert partition.PartitionSpec(3, alpha).generator == alpha


def test_check_options_defaults_and_positional_fields():
    assert identities.CheckOptions() == identities.CheckOptions((1, 3, 5, 7), None, 0)


def test_tracer_contract():
    # perfbench/tracer.py swaps every checker with dataclasses.replace and
    # wraps PartitionSpec.term at class level
    def checker(n, opts):
        return []

    for name, definition in identities.IDENTITIES.items():
        swapped = dataclasses.replace(definition, checker=checker)
        assert (swapped.name, swapped.checker, swapped.index_cap) == (name, checker, definition.index_cap)
    assert "term" in vars(partition.PartitionSpec)


def test_importing_the_cli_loads_no_fractions_and_no_dataclass():
    # only the identities command imports identities, and with it dataclasses
    # (and inspect) for IdentityDef, the one dataclass in the package
    src = str(Path(beattylab.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import beattylab.cli\n"
        "names = ('fractions', 'decimal', 'dataclasses', 'inspect', 'beattylab.identities')\n"
        "loaded = [name for name in names if name in sys.modules]\n"
        "import dataclasses, json\n"
        "def records():\n"
        "    return sorted({\n"
        "        f'{value.__module__}.{value.__qualname__}'\n"
        "        for name, module in list(sys.modules.items()) if name.split('.')[0] == 'beattylab'\n"
        "        for value in vars(module).values()\n"
        "        if isinstance(value, type) and dataclasses.is_dataclass(value)\n"
        "    })\n"
        "with_cli = records()\n"
        "import beattylab.identities\n"
        "print(json.dumps([loaded, with_cli, records()]))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    loaded, with_cli, with_identities = json.loads(proc.stdout)
    assert loaded == []
    assert with_cli == []
    assert with_identities == ["beattylab.identities.IdentityDef"]
