"""The value records against the dataclasses they replaced.

The five record classes were `@dataclass`es: `paths.DyckPath`,
`parking.ParkingFunction`, `parking.RootNotationPF` and
`symfunc.SymExpansion` frozen, `verify.CheckReport` mutable. The copies
below are those definitions, kept as the reference: on sample inputs the
records must match them in repr, equality within and across classes,
hashing, refusal to change, validation messages, and pickle and deepcopy
round trips.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter
from dataclasses import dataclass, field

import pytest

from ratcat import parking, paths, symfunc, verify
from ratcat.parking import _left_turns, _run_label_groups
from ratcat.paths import _validate_counts, levels
from ratcat.qt import LaurentQT
from ratcat.symfunc import BASES

# -- the reference: the dataclass definitions the records replace ----------


@dataclass(frozen=True)
class DyckPath:
    word: str
    a: int
    b: int

    def __post_init__(self):
        _validate_counts(self.word, self.a, self.b)
        if min(levels(self.word, self.a, self.b)) < 0:
            raise ValueError(f"{self.word} dips below the ({self.a},{self.b}) diagonal")


@dataclass(frozen=True)
class ParkingFunction:
    word: str
    labels: tuple
    a: int
    b: int
    path: DyckPath = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "path", DyckPath(self.word, self.a, self.b))
        if len(self.labels) != self.a:
            raise ValueError("one label per north step required")
        if sorted(self.labels) != list(range(1, self.a + 1)):
            raise ValueError(f"labels {self.labels} are not a permutation of 1..{self.a}")
        for run in _run_label_groups(self.word, self.labels):
            if any(run[i] >= run[i + 1] for i in range(len(run) - 1)):
                raise ValueError(f"labels {run} do not increase up a column")


@dataclass(frozen=True)
class RootNotationPF:
    word: str
    diagonal_word: tuple

    def __post_init__(self):
        n = len(self.diagonal_word)
        DyckPath(self.word, n, n)
        for j, k in _left_turns(self.word):
            if self.diagonal_word[j - 1] >= self.diagonal_word[k - 1]:
                raise ValueError("left-turn square has a non-increasing label pair")


@dataclass(frozen=True)
class SymExpansion:
    degree: int
    basis: str
    coeffs: tuple

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        for mu, c in self.coeffs:
            if sum(mu) != self.degree:
                raise ValueError(f"{mu} is not a partition of {self.degree}")
            if c.is_zero():
                raise ValueError("zero coefficient stored")


@dataclass
class CheckReport:
    claim: str
    params: dict
    passed: bool
    witness: object = None
    seconds: float = 0.0
    error: Exception | str | None = None
    peak_rss_kb: int = 0
    counters: dict = field(default_factory=dict)


# -- sample inputs ---------------------------------------------------------

FROZEN = {
    "DyckPath": (paths.DyckPath, DyckPath),
    "ParkingFunction": (parking.ParkingFunction, ParkingFunction),
    "RootNotationPF": (parking.RootNotationPF, RootNotationPF),
    "SymExpansion": (symfunc.SymExpansion, SymExpansion),
}

ONE = LaurentQT.const(1)
QT = LaurentQT({(1, 0): 2, (0, 1): -1})

# (class name, args, kwargs) that construct; two of a class are equal
# values exactly when their fields are
VALID = [
    ("DyckPath", ("NE", 1, 1), {}),
    ("DyckPath", ("", 0, 0), {}),
    ("DyckPath", ("NENEE", 2, 3), {}),
    ("DyckPath", ("NNEEE", 2, 3), {}),
    ("DyckPath", (), {"word": "NNEEE", "a": 2, "b": 3}),
    ("DyckPath", ("NNENNEENEEEEE", 5, 8), {}),
    ("ParkingFunction", ("NENEE", (1, 2), 2, 3), {}),
    ("ParkingFunction", ("NENEE", (2, 1), 2, 3), {}),
    ("ParkingFunction", ("NNEEE", (1, 2), 2, 3), {}),
    ("ParkingFunction", (), {"word": "NNEEE", "labels": (1, 2), "a": 2,
                             "b": 3}),
    # keywords out of field order bind by name, not by place
    ("ParkingFunction", (), {"labels": (1, 2), "word": "NENEE", "a": 2,
                             "b": 3}),
    ("RootNotationPF", ("NNEE", (1, 2)), {}),
    ("RootNotationPF", ("NNEE", (2, 1)), {}),
    ("RootNotationPF", ("NENE", (1, 2)), {}),
    ("RootNotationPF", (), {"word": "NENE", "diagonal_word": (1, 2)}),
    ("SymExpansion", (2, "m", (((2,), ONE), ((1, 1), QT))), {}),
    ("SymExpansion", (2, "s", (((2,), ONE), ((1, 1), QT))), {}),
    ("SymExpansion", (0, "h", ()), {}),
    ("SymExpansion", (), {"degree": 2, "basis": "m",
                          "coeffs": (((2,), ONE), ((1, 1), QT))}),
]

INVALID = [
    ("DyckPath", ("ENNEE", 2, 3), {}),
    ("DyckPath", ("NNEEE", 3, 2), {}),
    ("DyckPath", ("NEN", 2, 1), {}),
    ("DyckPath", ("NEX", 1, 1), {}),
    ("ParkingFunction", ("ENNEE", (1, 2), 2, 3), {}),
    ("ParkingFunction", ("NNEEE", (1,), 2, 3), {}),
    ("ParkingFunction", ("NENEE", (1, 3), 2, 3), {}),
    ("ParkingFunction", ("NNEEE", (2, 1), 2, 3), {}),
    ("ParkingFunction", ("NNEEE", (1, 1), 2, 3), {}),
    ("RootNotationPF", ("NEEN", (1, 2)), {}),
    ("RootNotationPF", ("NENE", (2, 1)), {}),
    ("SymExpansion", (2, "x", ()), {}),
    ("SymExpansion", (2, "m", (((3,), ONE),)), {}),
    ("SymExpansion", (2, "m", (((2,), LaurentQT()),)), {}),
]


def _pair(case):
    name, args, kw = case
    new, ref = FROZEN[name]
    return new(*args, **kw), ref(*args, **kw)


def _ids(cases):
    return [f"{name}{args or tuple(kw.values())}" for name, args, kw in cases]


# -- the frozen records ----------------------------------------------------


@pytest.mark.parametrize("case", VALID, ids=_ids(VALID))
def test_repr_and_hash_match_the_dataclass(case):
    new, ref = _pair(case)
    assert repr(new) == repr(ref)
    # the hash of the compared fields' tuple, as the dataclass had, so no
    # set of records iterates in another order
    assert hash(new) == hash(ref)
    assert vars(new).keys() == vars(ref).keys()


def test_equality_matches_the_dataclass():
    pairs = [_pair(case) for case in VALID]
    for new_i, ref_i in pairs:
        for new_j, ref_j in pairs:
            assert (new_i == new_j) == (ref_i == ref_j)
            assert (new_i != new_j) == (ref_i != ref_j)
            if new_i == new_j:
                assert hash(new_i) == hash(new_j)
        # a record equals no value of another class, the dataclass it
        # replaces and the tuple of its own fields included
        assert new_i != ref_i and not new_i == ref_i
        assert new_i != tuple(vars(ref_i).values())
    assert paths.DyckPath("NNEE", 2, 2) != parking.RootNotationPF("NNEE", (1, 2))


def test_the_path_of_a_parking_function_is_not_compared():
    pf = parking.ParkingFunction("NENEE", (1, 2), 2, 3)
    twin = parking.ParkingFunction._trusted(pf.path, (1, 2))
    ref = ParkingFunction("NENEE", (1, 2), 2, 3)
    assert pf == twin and hash(pf) == hash(twin)
    assert pf.path == paths.DyckPath("NENEE", 2, 3)
    assert repr(pf) == repr(ref) and "path" not in repr(pf)


@pytest.mark.parametrize("case", VALID, ids=_ids(VALID))
def test_fields_cannot_be_assigned_or_deleted(case):
    for obj in _pair(case):
        for name in (*vars(obj), "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)


@pytest.mark.parametrize("case", INVALID, ids=_ids(INVALID))
def test_validation_messages_match_the_dataclass(case):
    name, args, kw = case
    new, ref = FROZEN[name]
    with pytest.raises(ValueError) as want:
        ref(*args, **kw)
    with pytest.raises(ValueError) as got:
        new(*args, **kw)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("case", VALID, ids=_ids(VALID))
def test_pickle_and_deepcopy_round_trip(case):
    new, _ = _pair(case)
    for back in (pickle.loads(pickle.dumps(new)),
                 pickle.loads(pickle.dumps(new, pickle.HIGHEST_PROTOCOL)),
                 copy.deepcopy(new), copy.copy(new)):
        assert type(back) is type(new)
        assert back == new and hash(back) == hash(new)
        assert vars(back) == vars(new)
        assert repr(back) == repr(new)


def test_validation_runs_once_per_checked_build_and_never_when_trusted(
        monkeypatch):
    # perfbench counts DyckPath and ParkingFunction builds by wrapping
    # __post_init__ on the class, so __init__ must call it through the class
    calls = Counter()
    for cls in (paths.DyckPath, parking.ParkingFunction):
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            calls[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    d = paths.DyckPath("NENEE", 2, 3)
    assert calls == {"DyckPath": 1}
    parking.ParkingFunction("NENEE", (1, 2), 2, 3)
    # the parking function validates its path too
    assert calls == {"DyckPath": 2, "ParkingFunction": 1}
    calls.clear()
    assert paths.DyckPath._trusted("NENEE", 2, 3) == d
    parking.ParkingFunction._trusted(d, (1, 2))
    assert len(list(paths.enumerate_dyck(4, 5))) == 14
    assert len(list(parking.enumerate_pf(3, 4))) == 16  # b^(a-1)
    assert calls == {}


# -- the check report ------------------------------------------------------


REPORT_CASES = [
    (("demo", {"a": 1}, True), {}),
    (("demo", {"a": 1}, False, {"mu": [2, 1]}), {}),
    ((), {"claim": "demo", "params": {}, "passed": False,
          "witness": [1], "seconds": 0.5, "error": "Boom\n",
          "peak_rss_kb": 1024, "counters": {"paths": 3}}),
]


@pytest.mark.parametrize("args, kw", REPORT_CASES)
def test_check_report_matches_the_dataclass(args, kw):
    new = verify.CheckReport(*args, **kw)
    ref = CheckReport(*args, **kw)
    assert vars(new) == vars(ref)
    assert list(vars(new)) == list(vars(ref))
    back = pickle.loads(pickle.dumps(new))
    assert type(back) is verify.CheckReport
    assert vars(back) == vars(new)
    assert vars(copy.deepcopy(new)) == vars(new)
    new.error = "Traceback\n"
    assert new.error == "Traceback\n"


def test_each_check_report_gets_its_own_counters():
    one = verify.CheckReport("demo", {}, True)
    two = verify.CheckReport("demo", {}, True)
    one.counters["paths"] = 1
    assert two.counters == {}
