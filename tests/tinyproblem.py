"""The tests' small problems as problem dictionaries: a 12x6 bending strip
and a 3-D block."""


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


def block_problem_dict(nel):
    """A 3-D block of ``nel`` 1 mm elements (at least 4 along y and 3 along
    z), clamped at x = 0, its inlet on that face and drained at the far end."""
    length, width, height = (n * 0.001 for n in nel)
    return {
        "name": "block" + "x".join(map(str, nel)),
        "grid": {"dim": 3, "nel": list(nel), "h_m": 0.001},
        "regions": [
            {"role": "fixed_support", "box_m": [[0, 0, 0], [0, width, height]]},
            {"role": "pressure_inlet", "box_m": [[0, 0.002, 0.001], [0, 0.0035, 0.003]]},
            {"role": "pressure_drain", "box_m": [[length, 0, 0], [length, width, height]]},
            {
                "role": "output",
                "box_m": [[length, 0.001, 0.001], [length, 0.003, 0.003]],
                "direction": [0, -1, 0],
                "k_out_n_per_m": 10.0,
            },
        ],
        "materials": {"E_pa": [1e6, 1e7, 1e8]},
        "flow": {"P_in_pa": 5e4},
        "volume_fractions": [0.3, 0.2, 0.2],
    }
