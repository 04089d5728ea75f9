"""Bridge between flow networks and constraint programs, both directions."""

from .compile import compile_network
from .encode import (
    EncodingTrace,
    Milp,
    encode_milp,
    milp_to_program,
    solve_encoded,
)
from .milp_io import load_milp, milp_from_dict

__all__ = [
    "compile_network",
    "EncodingTrace",
    "Milp",
    "encode_milp",
    "milp_to_program",
    "solve_encoded",
    "load_milp",
    "milp_from_dict",
]
