"""The result records are namedtuples, each picklable and reachable under its own name."""

import pickle

import numpy as np
import pytest

import noma_mec
from noma_mec import (
    energy_surface,
    select_strategy,
    validate_scenario,
    verification_campaign,
)

ANCHOR = validate_scenario(15.0, 20.0, 25.0)

# (record, its fields in the documented order)
RECORDS = [
    (select_strategy(ANCHOR).hybrid,
     ("strategy", "energy", "normalized_energy", "phase1_energy", "phase2_energy", "feasible")),
    (select_strategy(ANCHOR),
     ("hybrid", "pure_noma", "oma", "selected", "regime", "t_star", "p_n1_star", "p_n2_star")),
    (energy_surface(ANCHOR, 5.0, resolution=4),
     ("p1_axis", "p2_axis", "energy", "feasible", "scenario", "t_n")),
    (verification_campaign(42, 25),
     ("seed", "count", "max_rel_err", "max_dominance_violation", "passed")),
]


def same_values(a, b) -> bool:
    """Field-by-field equality that compares array fields elementwise."""
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b)
    )


@pytest.mark.parametrize("record,fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_is_a_named_tuple(record, fields):
    cls = type(record)
    assert getattr(noma_mec, cls.__name__) is cls and isinstance(record, tuple)
    assert cls._fields == fields
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and same_values(back, record)
    if not any(isinstance(value, np.ndarray) for value in record):
        assert back == record == tuple(record)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None   # no instance dict either


def test_campaign_count_is_the_campaign_size():
    # The field shadows tuple.count.
    assert verification_campaign(42, 25).count == 25
