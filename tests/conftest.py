import os
import pathlib
import sys

# The repository's own src/, placed after the PYTHONPATH entries so that
# ``PYTHONPATH=<other checkout>/src python -m pytest`` tests that checkout.
_pythonpath = {os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
_last = max((i for i, p in enumerate(sys.path) if p and os.path.abspath(p) in _pythonpath), default=-1)
sys.path.insert(_last + 1, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hypothesis import strategies as st

# Parameter ranges used throughout: task sizes and deadlines wide enough to
# stress the exponentials without leaving double range.
task_sizes = st.floats(min_value=1.0, max_value=40.0, allow_nan=False)
shared_slots = st.floats(min_value=1.0, max_value=50.0, allow_nan=False)
gains = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
unit = st.floats(min_value=1e-3, max_value=1.0 - 1e-3, allow_nan=False)


@st.composite
def hybrid_scenarios(draw):
    """Scenario with d_n strictly inside (d_m, 2 d_m)."""
    from noma_mec import validate_scenario

    nats = draw(task_sizes)
    d_m = draw(shared_slots)
    d_n = d_m * (1.0 + draw(unit))
    return validate_scenario(nats, d_m, d_n, draw(gains), draw(gains))


@st.composite
def any_scenarios(draw):
    """Scenario with d_n anywhere in [d_m, 4 d_m]."""
    from noma_mec import validate_scenario

    nats = draw(task_sizes)
    d_m = draw(shared_slots)
    factor = draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    return validate_scenario(nats, d_m, d_m * (1.0 + factor), draw(gains), draw(gains))
