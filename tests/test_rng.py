import numpy as np

from parseq.rng import stream


def test_stream_draws_are_pinned():
    # Every recorded output (the CLI digests included) was drawn from these
    # streams, so their first values must never move.
    assert stream(3, "x_T").standard_normal(2).tolist() == [
        2.0409191213851825, -2.5556650313141818
    ]
    assert stream(3, "noise_stack").standard_normal() == 0.01755360346943547
    ss = np.random.SeedSequence([3, 0, 0])
    assert np.random.default_rng(ss).standard_normal() == 2.0409191213851825

