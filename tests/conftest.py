import sys

import pytest
from hypothesis import HealthCheck, settings

# Deterministic property tests: derandomize replays the same example set on
# every run, so CI results are reproducible.
settings.register_profile(
    "det",
    derandomize=True,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture
def int_str_limit():
    """Set Python's int->str digit limit for one test; the old limit is restored after it.

    Neither the library nor ``kpell.cli.main`` changes the limit, so a test
    runs under the interpreter's default unless it sets the limit itself.
    """
    old = sys.get_int_max_str_digits()
    try:
        yield sys.set_int_max_str_digits
    finally:
        sys.set_int_max_str_digits(old)
