"""The tests' small problem: a 12x6 bending strip as a problem dictionary."""


def tiny_problem_dict(**overrides):
    """A 12x6 bending strip: inlet off-center so the start is not degenerate."""
    raw = {
        "name": "tiny",
        "grid": {"dim": 2, "nel": [12, 6], "h_m": 0.001},
        "regions": [
            {"role": "fixed_support", "box_m": [[0, 0], [0, 0.006]]},
            {"role": "pressure_inlet", "box_m": [[0, 0.003], [0, 0.005]]},
            {"role": "pressure_drain", "box_m": [[0.012, 0], [0.012, 0.006]]},
            {
                "role": "output",
                "box_m": [[0.012, 0.002], [0.012, 0.004]],
                "direction": [0, -1],
                "k_out_n_per_m": 10.0,
            },
        ],
        "materials": {"E_pa": [1e6, 1e7, 1e8]},
        "flow": {"P_in_pa": 5e4},
        "volume_fractions": [0.3, 0.2, 0.2],
        "optimizer": {"max_iters": 60},
    }
    raw.update(overrides)
    return raw
