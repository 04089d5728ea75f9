"""JSON loading for the dense Milp container."""

import json

import numpy as np

from .encode import Milp


def milp_from_dict(data):
    m = len(data["b"])
    nx = len(data["c_x"])
    ny = len(data["c_y"])
    return Milp(
        np.asarray(data["c_x"], dtype=float),
        np.asarray(data["c_y"], dtype=float),
        np.asarray(data["A_x"], dtype=float).reshape(m, nx),
        np.asarray(data["A_y"], dtype=float).reshape(m, ny),
        np.asarray(data["b"], dtype=float),
        list(data["row_sense"]),
        data.get("sense", "max"),
    )


def load_milp(path):
    with open(path) as fh:
        return milp_from_dict(json.load(fh))
