"""The wire codec does not depend on when numpy was imported.

The encoder resolves a class it has not met before through its
base-class order once and remembers the answer; numpy's scalar and
array classes are in that order.  A process that encodes plain ints and
floats before numpy is loaded (a ``repro serve`` child echoing ids) must
still encode numpy values later with the oracle's bytes, and refuse what
it always refused; a process that never imports numpy itself must still
decode an array frame.
"""

import json

import numpy as np

from repro.network.protocol import encode_value
from tests.network.test_protocol import oracle_encode
from tests.test_package_exports import run_child

ENCODE_AFTER_CACHE_FILLED = """
import json
from repro.network import protocol

early = [protocol.encode_value(7).hex(), protocol.encode_value(2.5).hex()]
import numpy as np
late = [protocol.encode_value(value).hex() for value in (
    np.int64(-7), np.float32(1.5), np.array(2.5),
    np.arange(12, dtype="<i4").reshape(3, 4).T)]
refused = []
for value in (np.bool_(True), np.array([None], dtype=object)):
    try:
        protocol.encode_value(value)
    except TypeError as exc:
        refused.append(str(exc))
print(json.dumps([early, late, refused]))
"""

DECODE_WITHOUT_IMPORTING_NUMPY = """
import json, sys
from repro.network import protocol

value = protocol.decode_value(bytes.fromhex(sys.argv[1]))
print(json.dumps([type(value).__name__, value.dtype.str, list(value.shape),
                  value.tolist()]))
"""


def test_numpy_values_encode_after_the_cache_has_filled():
    early, late, refused = json.loads(run_child(ENCODE_AFTER_CACHE_FILLED))
    assert early == [oracle_encode(7).hex(), oracle_encode(2.5).hex()]
    assert late == [oracle_encode(value).hex() for value in (
        np.int64(-7), np.float32(1.5), np.array(2.5),
        np.arange(12, dtype="<i4").reshape(3, 4).T)]
    assert refused == [f"value of type {np.bool_.__name__} is not "
                       "wire-encodable",
                       "object-dtype ndarray is not wire-encodable"]


def test_an_ndarray_frame_decodes_in_a_process_that_never_imported_numpy():
    array = np.arange(6, dtype="<f4").reshape(2, 3)
    blob = encode_value(array).hex()
    out = run_child(DECODE_WITHOUT_IMPORTING_NUMPY, blob)
    assert json.loads(out) == ["ndarray", "<f4", [2, 3], array.tolist()]
