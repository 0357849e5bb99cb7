import math
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


def identity_corpus(count=1200, seed=2018):
    """Seeded scenarios for the README's bit-exact identities: a quarter each with d_n == d_m,
    d_m < d_n < 2 d_m, d_n == 2 d_m and 2 d_m < d_n <= 3.5 d_m. ``nats/d_m`` is log-uniform
    up to 800, so in part of every quarter an exponent passes EXP_CUTOFF and the energy
    saturates to inf; an overflowing ``nats/d_m``, which fails closed, is left out."""
    import numpy as np

    from noma_mec import validate_scenario

    rng = np.random.default_rng(seed)
    quarter = count // 4
    factor = np.concatenate([np.ones(quarter), rng.uniform(1.0, 2.0, quarter),
                             np.full(quarter, 2.0), 3.5 - rng.uniform(0.0, 1.5, quarter)])
    d_m = 10.0 ** rng.uniform(-1.0, 2.0, factor.size)
    rate = 10.0 ** rng.uniform(-3.0, math.log10(800.0), factor.size)
    gains = 10.0 ** rng.uniform(-2.0, 2.0, (2, factor.size))
    return [validate_scenario(r * m, m, f * m, g_m, g_n)
            for r, m, f, g_m, g_n in zip(rate, d_m, factor, *gains)]


def numpy_exp_fingerprint():
    """The first 16 hex digits of a sha256 over numpy's ``exp``/``expm1`` on a fixed grid. Their
    last bits depend on the SIMD code numpy picks for the CPU, and the oracle runs on them, so
    a pinned oracle value or hash holds only on the path it was pinned on: c65323f58be31cb3
    on numpy's AVX-512 path (AVX512_SKX), 7106054b4aa1e088 on its AVX2 path, which
    ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` selects on an AVX-512 host."""
    import hashlib

    import numpy as np

    grid = np.linspace(-5.0, 60.0, 4001)
    return hashlib.sha256(np.exp(grid).tobytes() + np.expm1(grid).tobytes()).hexdigest()[:16]


def numpy_exp_is_pinned():
    """Whether numpy's ``exp``/``expm1`` give the bits of the AVX-512 path, on which the
    campaign summaries were pinned (see ``numpy_exp_fingerprint``)."""
    return numpy_exp_fingerprint() == "c65323f58be31cb3"
