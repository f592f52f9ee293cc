"""The package's argument rule as one table (see the docstring of ``bounds``).

REJECTED rows are calls that raise DomainError with the message fragment
given.  ACCEPTED rows pair a call on numpy scalars, or on a number beside
an array of a, with the same call on Python numbers, or on each entry: both
give equal values of the same types.
ENTRY rows call an array form with an argument whose first bad entry is at
index i: the error is the float call's on that entry, with " at index i"
added unless the message names the entry's a.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from sendov_lab import bounds
from sendov_lab.bounds import DomainError
from sendov_lab.polynomial import SendovInstance, sendov_distances
from sendov_lab.roots import Polynomial, find_roots, from_roots, match_roots
from sendov_lab.verify import fuzz_sendov, run_inequality_suite, verify_estimate_chain

A = np.array([0.5, 0.4])
F32 = np.float32(0.5)
C32 = np.float32(0.25)
F64 = np.float64(0.5)
C64 = np.float64(0.475)


class _Index:
    """An int to operator.index, but neither an int nor a numpy integer."""

    def __index__(self):
        return 4


def row(call, expected, name):
    return pytest.param(call, expected, id=name)


def _same(x, y) -> bool:
    """x == y with the same types throughout, arrays by dtype and bits."""
    if type(x) is not type(y):
        return False
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.tobytes() == y.tobytes()
    if dataclasses.is_dataclass(x):
        x, y = (tuple(getattr(v, f.name) for f in dataclasses.fields(v)) for v in (x, y))
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(_same, x, y))
    return x == y


def _python_floats(value):
    """value, a float or a tuple of them, as Python floats."""
    return tuple(map(float, value)) if isinstance(value, tuple) else float(value)


def _entrywise(f, *args):
    """The float calls of f at each a of A and args as Python floats, stacked
    as f(A, *args) returns them."""
    values = [f(a, *map(float, args)) for a in A.tolist()]
    if isinstance(values[0], tuple):
        return tuple(np.array(v) for v in zip(*values))
    return np.array(values)


# Every entry point that takes a real a but no array of it.
SCALAR_A_ENTRIES = {
    "SendovInstance": lambda a: SendovInstance(a, (0.1,)),
    "sendov_distances": lambda a: sendov_distances(a, [[0.1]]),
    "fuzz_sendov": lambda a: fuzz_sendov(a, 4, 5),
    "mean_upper_bound": lambda a: bounds.mean_upper_bound(a, 10),
    "breakdown": bounds.breakdown,
    "n1": bounds.n1,
    "n2": lambda a: bounds.n2(a, 0.2),
    "d_function": lambda a: bounds.d_function(a, 0.2, 0.5),
    "k_factors": lambda a: bounds.k_factors(a, 0.2, 0.1, 0.1),
    "log_k_prime": bounds.log_k_prime,
    "k_prime": bounds.k_prime,
    "n3": bounds.n3,
    "small_circle_bound": bounds.small_circle_bound,
}

REJECTED = [
    *(row(lambda f=f: f(A), "^a must be a real number", f"{name}-array_a")
      for name, f in SCALAR_A_ENTRIES.items()),
    row(lambda: bounds.n0(0.5 + 0j), "^a must be a real number", "complex_a"),
    row(lambda: SendovInstance(0.0, (0.5,)), r"a must lie in \(0, 1\)", "instance_a_zero"),
    row(lambda: SendovInstance(1.0, (0.5,)), r"a must lie in \(0, 1\)", "instance_a_one"),
    row(lambda: SendovInstance(0.5, ()), "need at least one other zero", "instance_no_zeros"),
    row(lambda: SendovInstance(0.5, (1.5,)), "modulus", "instance_zero_outside"),
    row(lambda: SendovInstance(0.5, (complex("nan"),)), "finite", "instance_nan_zero"),
    row(lambda: SendovInstance(0.5, ("0.5j", True)), "numbers", "instance_string_and_bool"),
    # from_json converts no field: a string or a bool stays one.
    *(row(lambda text=text: SendovInstance.from_json(text), fragment, f"from_json_{name}")
      for text, fragment, name in (
          ('{"a": "0.5", "zeros": [[0, 0]]}', "^a must be a real number, got '0.5'$", "string_a"),
          ('{"a": true, "zeros": [[0, 0]]}', "^a must be a real number, got True$", "bool_a"),
          ('{"a": 0.5, "zeros": [[true, false]]}', "^zeros must be rows of numbers", "bool_zero"),
          ('{"a": 0.5, "zeros": [["0.1", 0]]}', "^zeros must be rows of numbers", "string_zero"),
          ('{"a": 0.5, "zeros": [[0, null]]}', "^zeros must be rows of numbers", "null_zero"),
          ('{"a": 0.5, "zeros": 5}', "^zeros must be rows of numbers", "number_zeros"),
          ('{"a": 0.5, "zeros": [[0.1]]}', r"^each zero must be a row \[re, im\]",
           "one_component"),
          ('{"a": 0.5, "zeros": [[0.1, 0.2, 0.3]]}', r"^each zero must be a row \[re, im\]",
           "three_components"),
          ('{"a": 0.5, "zeros": [[[0.1, 0.2]]]}', "^zeros must be rows of numbers", "nested_row"),
          ('{"a": 0.5, "zeros": []}', "need at least one other zero", "no_zeros"))),
    row(lambda: Polynomial(()), "a polynomial needs at least one coefficient",
        "polynomial_no_coefficients"),
    row(lambda: Polynomial((1.0, 0.0)), "leading coefficient must be nonzero",
        "polynomial_zero_leading"),
    row(lambda: Polynomial((math.nan, 1.0)), "coefficients must be finite", "polynomial_nan"),
    row(lambda: Polynomial((complex(0, math.inf), 1.0)), "coefficients must be finite",
        "polynomial_inf_imaginary"),
    row(lambda: Polynomial((10 ** 400, 1)), "coefficients must be finite",
        "polynomial_int_past_float_range"),
    *(row(lambda bad=bad: Polynomial(bad), "coefficients must be numbers", f"polynomial_{name}")
      for bad, name in ((("1", True), "string_and_bool"), ((1.0, True), "bool"),
                        ((1.0, "2"), "string"), (np.array([True, True]), "bool_array"),
                        (((1.0, 2.0),), "nested"),
                        (np.array(["0.5", 1.0], dtype=object), "string_object_array"),
                        (np.array([True, 1.0], dtype=object), "bool_object_array"))),
    row(lambda: from_roots([]), "from_roots needs at least one root", "from_roots_no_roots"),
    row(lambda: find_roots(Polynomial((2.0,))), "find_roots needs degree >= 1",
        "find_roots_degree_0"),
    row(lambda: match_roots((0.0,), (0.0, 1.0)), "matching needs two equal nonempty root lists",
        "match_roots_length_mismatch"),
    row(lambda: sendov_distances(0.5, np.array([[0.5, 0.2j], [1.5, 0.0]])), "modulus",
        "rows_zero_outside"),
    row(lambda: sendov_distances(0.5, np.array([[0.5, complex("nan")]])), "finite", "rows_nan"),
    row(lambda: sendov_distances(1.0, np.array([[0.5]])), r"a must lie in \(0, 1\)", "rows_a_one"),
    row(lambda: sendov_distances(0.5, np.array([0.5, 0.2])), "must be rows of numbers", "rows_1-D"),
    row(lambda: sendov_distances(0.5, np.empty((0, 3))), "need at least one other zero",
        "rows_empty"),
    row(lambda: sendov_distances(0.5, [["zero"]]), "numbers", "rows_string"),
    row(lambda: sendov_distances(0.5, [[True, 0.5]]), "numbers", "rows_bool"),
    row(lambda: sendov_distances(0.5, [["0.5", 0.5]]), "numbers", "rows_numeric_string"),
    *(row(lambda bad=bad: fuzz_sendov(0.5, bad, 10), r"degree must be an integer in \[2, 200\]",
          f"degree_{bad}") for bad in (1, 201)),
    row(lambda: fuzz_sendov(0.0, 4, 10), r"a must lie in \(0, 1\)", "fuzz_a_zero"),
    row(lambda: fuzz_sendov(0.5, 4, 0), "trials must be a positive integer", "trials_0"),
    row(lambda: fuzz_sendov(0.5, 4.0, 10), "degree must be an integer", "degree_float"),
    row(lambda: fuzz_sendov(0.5, 10**5000, 1), "got an integer of 16610 bits", "degree_huge"),
    row(lambda: fuzz_sendov(0.5, _Index(), 5), "degree must be an integer", "degree_index"),
    row(lambda: fuzz_sendov(0.5, np.True_, 5), "degree must be an integer", "degree_np_bool"),
    row(lambda: bounds.mean_upper_bound(0.5, np.array([10])), "n must be an integer", "n_array"),
    *(row(lambda bad=bad: bounds.aux_params(bad),
          rf"^a must lie in \(0, 1\), got {re.escape(repr(bad))}$", f"aux_params_{bad!r}")
      for bad in (0.0, 1.0, -0.5, 1.5, math.nan, math.inf)),
    row(lambda: bounds.aux_params(True), "^a must be a real number, got True$", "aux_params_True"),
    # An int past binary64 range is named by its bit length, as its repr
    # fails past 4,300 digits.
    *(row(lambda bad=bad: bounds.mean_upper_bound(0.5, bad),
          f"^n must be an integer >= 2, got {re.escape(shown)}$", f"mean_upper_bound_n_{name}")
      for bad, name, shown in ((1, "1", "1"), (0, "0", "0"), (-3, "-3", "-3"),
                               (True, "True", "True"), (2.0, "2.0", "2.0"),
                               (-10**5000, "-10**5000", "a negative integer of 16610 bits"))),
    *(row(lambda bad=bad: bounds.mean_upper_bound(0.5, bad),
          r"^n must be at most the largest float, 1\.7976931348623157e\+308, "
          f"got an integer of {bits} bits$", f"mean_upper_bound_n_{name}")
      for bad, name, bits in ((10**309, "10**309", 1027), (10**400, "10**400", 1329))),
    *(row(lambda bad=bad: run_inequality_suite(grid_step=bad), "grid_step must lie in",
          f"grid_step_{bad!r}") for bad in (0.5, 0.0, -1e-3, math.nan)),
    # Below 1e-5 the grid would not fit in memory, or 1/grid_step would
    # not round to an int.
    *(row(lambda suite=suite, bad=bad: suite(grid_step=bad), r"must lie in \[1e-05, 0.01\]",
          f"{suite.__name__}_{bad!r}")
      for suite in (run_inequality_suite, verify_estimate_chain)
      for bad in (5e-324, 1e-12, 9.99e-6)),
    row(lambda: run_inequality_suite(grid_step=np.array([0.01])), "grid_step must be a real number",
        "grid_step_array"),
    *(row(lambda bad=bad: run_inequality_suite(grid_step=0.01, seed=bad),
          f"^seed must be a non-negative integer, got {re.escape(repr(bad))}$",
          f"suite_seed_{bad!r}") for bad in (-1, 1.5, True, None)),
    *(row(lambda bad=bad: fuzz_sendov(0.5, 4, 10, seed=bad),
          f"^seed must be a non-negative integer, got {re.escape(repr(bad))}$",
          f"fuzz_seed_{bad!r}") for bad in (-1, -(2**70), 2.0)),
    # True is an int to Python but not a count; numpy raised on it.
    *(row(lambda bad=bad: run_inequality_suite(extra_random=bad), "extra_random",
          f"extra_random_{bad!r}") for bad in (-1, True, 2.0)),
    # Rejected before any point is drawn: 10**7 points would hold about
    # 2.4 GB of per-point arrays at the suite's peak.
    *(row(lambda bad=bad: run_inequality_suite(extra_random=bad),
          r"extra_random must be an integer in \[0, 100000\]", f"extra_random_{name}")
      for bad, name in ((100_001, "100001"), (10**7, "10**7"), (np.int64(10**9), "np_10**9"),
                        (10**5000, "10**5000"))),
    row(lambda: bounds.n2(0.5, 0.6), r"c must lie in \(0, 0\.5\)", "n2_c_above_a"),
    row(lambda: bounds.n2(0.5, 0.0), r"c must lie in \(0, 0\.5\)", "n2_c_zero"),
    row(lambda: bounds.n2(0.5, A), "c must be a real number", "n2_array_c"),
    row(lambda: bounds.d_function(0.5, 0.2, A), "x must be a real number", "d_function_array_x"),
    row(lambda: bounds.k_factors(0.5, 0.2, A, 0.1), "p must be a real number", "k_factors_array_p"),
    row(lambda: bounds.log_k_factors(0.5, 0.2, A, 0.1), "p must be a real number",
        "array_p_beside_float_a"),
    row(lambda: bounds.r_param(A, np.array([0.1, 0.1, 0.1])),
        "^c must have a's length 2, got length 3$", "c_of_another_length"),
    row(lambda: bounds.log_k_factors(A, 0.2, 0.1, np.array([0.1, 0.1, 0.1])),
        "^q must have a's length 2, got length 3$", "q_of_another_length"),
    row(lambda: bounds.r_param(A, np.array([[0.1, 0.1]])),
        r"^c must be a real number or a 1-D array, got shape \(1, 2\)$", "c_2-D"),
    *(row(lambda bad=bad: bounds.aux_params(bad), "a must be a real number", f"aux_params_{name}")
      for bad, name in ((np.full((2, 2), 0.5), "2-D"), (np.array(0.5), "0-D"),
                        (np.array([0.5], dtype=np.float32), "float32"),
                        (np.array([], dtype=np.int64), "empty_int"),
                        (np.array([0.5], dtype=object), "object"))),
    row(lambda: bounds.aux_params(np.True_), r"^a must be a real number, got np\.True_$",
        "aux_params_np_True_"),
    row(lambda: bounds.aux_params(np.array([True, False])),
        r"^a must be a real number, got np\.True_ at index 0 of a bool array$",
        "aux_params_bool_array"),
]


ACCEPTED = [
    row(lambda: SendovInstance(0.5, (np.int64(0), np.float32(0.5), np.complex128(0.25j))),
        lambda: SendovInstance(0.5, (0j, 0.5 + 0j, 0.25j)), "instance_numpy_zeros"),
    # An object array is checked entry by entry, as a list is.
    row(lambda: SendovInstance(0.5, np.array([0.1j, 0.2], dtype=object)),
        lambda: SendovInstance(0.5, (0.1j, 0.2 + 0j)), "instance_object_array"),
    row(lambda: Polynomial(np.array([1, 2j], dtype=object)), lambda: Polynomial((1 + 0j, 2j)),
        "polynomial_object_array"),
    row(lambda: fuzz_sendov(0.5, np.int64(4), np.int64(5), seed=np.int64(5)),
        lambda: fuzz_sendov(0.5, 4, 5, seed=5), "fuzz_numpy_integers"),
    row(lambda: SendovInstance(F32, (0.1,)), lambda: SendovInstance(0.5, (0.1,)), "instance_f32"),
    row(lambda: sendov_distances(F32, [[0.1, -0.2j]]),
        lambda: sendov_distances(0.5, [[0.1, -0.2j]]), "sendov_distances_f32"),
    row(lambda: fuzz_sendov(F32, 4, 5), lambda: fuzz_sendov(0.5, 4, 5), "fuzz_f32"),
    row(lambda: bounds.breakdown(F32), lambda: bounds.breakdown(0.5), "breakdown_f32"),
    row(lambda: bounds.aux_params(F32), lambda: bounds.aux_params(0.5), "aux_params_f32"),
    row(lambda: bounds.mean_upper_bound(F32, np.int64(10)),
        lambda: bounds.mean_upper_bound(0.5, 10), "mean_upper_bound_f32"),
    row(lambda: bounds.n2(F32, C32), lambda: bounds.n2(0.5, 0.25), "n2_f32"),
    row(lambda: bounds.d_function(F32, C32, C32), lambda: bounds.d_function(0.5, 0.25, 0.25),
        "d_function_f32"),
    row(lambda: bounds.k_factors(F32, C32, C32, C32),
        lambda: bounds.k_factors(0.5, 0.25, 0.25, 0.25), "k_factors_f32"),
    row(lambda: bounds.alpha_param(F32, C32, C32), lambda: bounds.alpha_param(0.5, 0.25, 0.25),
        "alpha_param_f32"),
    row(lambda: bounds.mu2(np.int64(1)), lambda: bounds.mu2(1.0), "mu2_int64"),
    row(lambda: run_inequality_suite(grid_step=np.float32(0.01), extra_random=np.int64(5)),
        lambda: run_inequality_suite(grid_step=float(np.float32(0.01)), extra_random=5),
        "suite_f32_step"),
    row(lambda: verify_estimate_chain(grid_step=np.float32(0.01)),
        lambda: verify_estimate_chain(grid_step=float(np.float32(0.01))), "chain_f32_step"),
    # A numpy float64 gives the Python floats of the float call.
    *(row(lambda f=f, args=args: f(*args),
          lambda f=f, args=args: _python_floats(f(*map(float, args))), f"{f.__name__}_f64")
      for f, args in (
          (bounds.n0, (F64,)), (bounds.n1, (F64,)), (bounds.n2, (F64, C64)),
          (bounds.d_function, (F64, C64, F64)),
          (bounds.k_factors, (F64, C64, np.float64(0.1), np.float64(0.1))),
          (bounds.log_k_factors, (F64, C64, np.float64(0.1), np.float64(0.1))),
          (bounds.k_prime, (F64,)), (bounds.log_k_prime, (F64,)),
          (bounds.mu1, (F64,)), (bounds.mu2, (F64,)),
          (bounds.r_param, (F64, C64)), (bounds.alpha_param, (F64, C64, np.float64(0.1))),
          (bounds.n3, (F64,)), (bounds.final_bound, (F64,)),
          (bounds.small_circle_bound, (F64,)),
      )),
    # Other arguments follow a: a number beside an array of a is each entry's.
    *(row(lambda f=f, args=args: f(A, *args), lambda f=f, args=args: _entrywise(f, *args),
          f"{f.__name__}_numpy_scalar_beside_array_a")
      for f, args in ((bounds.r_param, (C32,)), (bounds.log_k_factors, (C32, F32, C32)),
                      (bounds.alpha_param, (C32, F32)))),
]


# a and c at a = 0.5 and 0.6, where log K' is set to 0 at the second; and an
# a of 1e-17, which passes aux_params but leaves 1 - c == 1.
_AC = (np.array([0.5, 0.6]), bounds.aux_params(np.array([0.5, 0.6])).c)
_A_TINY = np.array([0.5, 1e-17])

ENTRY = [
    pytest.param(bounds.r_param, (A, np.array([0.3, 0.6])), 1,
                 r"c must lie in \(0, 0\.4\), got 0\.6 at index 1", id="c_entry"),
    pytest.param(bounds.r_param, (A, 0.45), 1,
                 r"^c must lie in \(0, 0\.4\), got 0\.45 at index 1$", id="float_c_beside_array_a"),
    pytest.param(bounds.r_param, (A, 10**400), 0,
                 r"c must lie in \(0, 0\.5\), got an integer of 1329 bits at index 0",
                 id="huge_c_beside_array_a"),
    pytest.param(bounds.alpha_param, (A, np.array([0.3, 0.3]), np.array([1.0, 0.5])), 0,
                 r"r_val must lie in \(0, 1\), got 1\.0 at index 0", id="r_val_entry"),
    pytest.param(bounds.alpha_param, (_A_TINY, bounds.aux_params(_A_TINY).c, np.array([0.1, 0.1])),
                 1, "a=1e-17 is too small: 1 - c", id="one_minus_c_rounds_to_one"),
    pytest.param(bounds._n3_exact, (*_AC, bounds.r_param(*_AC)[0], np.array([0.1, 0.0]),
                                    bounds._libm(math.log, _AC[0] / 16.0)), 1,
                 "not above 1 at a=0.6;", id="growth_factor_not_above_one"),
    # mu2 is defined at a = 1; test_bounds.py's TestArrayPath pins an array holding it.
    *(pytest.param(bounds.mu2, (np.array([0.5, 0.25, bad, 0.75]),), 2,
                   rf"^a must lie in \(0, 1\], got {re.escape(repr(bad))} at index 2$",
                   id=f"mu2_{bad!r}") for bad in (0.0, math.nan, math.inf, -math.inf)),
    *(pytest.param(fn, (np.array([0.5, 0.25, bad, 0.75]),), 2,
                   rf"^a must lie in \(0, 1\), got {re.escape(repr(bad))} at index 2$",
                   id=f"{fn.__name__}_{bad!r}")
      for fn in (bounds.n0, bounds.mu1)
      for bad in (0.0, 1.0, math.nan, math.inf, -math.inf)),
    *(pytest.param(fn, (np.array([0.5, tiny]),), 1,
                   f"^a={re.escape(repr(tiny))} is too small: {fn.__name__}"
                   r"\(a\) is past binary64 range$", id=f"{fn.__name__}_{tiny!r}_past_binary64")
      for fn, tiny in ((bounds.final_bound, 1e-50), (bounds.n0, 1e-170), (bounds.n0, 1e-160))),
    pytest.param(bounds.aux_params, (np.array([0.5, 0.25, 5e-324, 0.75]),), 2,
                 r"^a=5e-324 leaves no binary64 value of c = a\*gamma below a$",
                 id="subnormal_leaves_no_c_below_a"),
    pytest.param(bounds.n0, (np.array([0.5, 0.25, 1.5, 0.0]),), 2,
                 r"^a must lie in \(0, 1\), got 1\.5 at index 2$", id="first_bad_entry_is_named"),
]


@pytest.mark.parametrize("call, fragment", REJECTED)
def test_rejected(call, fragment):
    with pytest.raises(DomainError, match=fragment):
        call()


@pytest.mark.parametrize("call, plain_call", ACCEPTED)
def test_accepted(call, plain_call):
    assert _same(call(), plain_call())


@pytest.mark.parametrize("fn, args, i, fragment", ENTRY)
def test_array_entry_gets_its_float_error(fn, args, i, fragment):
    with pytest.raises(DomainError, match=fragment) as whole:
        fn(*args)
    with pytest.raises(DomainError) as one:
        fn(*(x.item(i) if isinstance(x, np.ndarray) else x for x in args))
    assert str(whole.value) in (str(one.value), f"{one.value} at index {i}")
