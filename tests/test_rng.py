import numpy as np
import pytest

from parseq import ConfigError
from parseq.rng import draw_noise_stack, draw_x_T, stream


def test_stream_draws_are_pinned():
    # Every recorded output (the CLI digests included) was drawn from these
    # streams, so their first values must never move.
    assert stream(3, "x_T").standard_normal(2).tolist() == [
        2.0409191213851825, -2.5556650313141818
    ]
    assert stream(3, "noise_stack").standard_normal() == 0.01755360346943547
    assert draw_x_T(3, 2).tolist() == [2.0409191213851825, -2.5556650313141818]
    assert draw_noise_stack(3, 1, 1).tolist() == [[0.01755360346943547]]
    ss = np.random.SeedSequence([3, 0, 0])
    assert np.random.default_rng(ss).standard_normal() == 2.0409191213851825



def test_unknown_purpose_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^unknown rng purpose 'weights'; known: \["):
        stream(0, "weights")
