"""The package's one rule for integer inputs."""

import numpy as np


def _integer(v, text: bool):
    """`v` as an int, or None when the rule says it is no integer."""
    if text and isinstance(v, str):
        try:
            v = float(v)
        except ValueError:
            return None
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    return int(v) if isinstance(v, (float, np.floating)) and float(v).is_integer() else None


def integral(name, values, lo: int | None = None, text: bool = False):
    """`values`, a scalar or an array-like, as an int or an int64 array of its shape.

    An integer is an int or a float with a finite integral value (10.0 is 10), not
    a bool, a string or None; with `text`, a string is parsed with float() first.
    ValueError names `name`, or `name(flat index)`, and the first value that is no
    integer or is below `lo`.
    """
    if type(values) is int and (lo is None or values >= lo):  # the common case, without NumPy
        return values
    arr = values if isinstance(values, np.ndarray) else np.asarray(values)
    obj = arr if arr is values else np.asarray(values, dtype=object)  # NumPy reads True as 1
    low = -np.inf if lo is None else lo
    if arr.dtype.kind in "iu" and (obj is arr or {bool, np.bool_}.isdisjoint(map(type, obj.flat))):
        ints, bad = arr, np.flatnonzero(arr < low)
    else:
        flat = [_integer(v, text) for v in obj.flat]
        bad = [i for i, v in enumerate(flat) if v is None or v < low]
        ints = np.array(flat, dtype=object).reshape(obj.shape)
    if len(bad):
        v, bound = obj.flat[bad[0]], "" if lo is None else f" >= {lo}"
        raise ValueError(f"{name(bad[0]) if callable(name) else name} must be "
                         f"{'an integer' if obj.ndim == 0 else 'integers'}{bound}, "
                         f"got {v.item() if isinstance(v, np.generic) else v!r}")
    return ints.item() if ints.ndim == 0 else np.asarray(ints, dtype=np.int64)
