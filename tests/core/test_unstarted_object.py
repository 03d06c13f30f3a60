"""The re-issuing wrappers read their loop as a plain attribute; before
``start_run`` that attribute is the base class's unstarted object, so
misuse names the mistake instead of tripping over ``None``."""

import copy
import pickle

import pytest

from repro.core.query import Query, QuerySample
from repro.durability import SelfHealingSUT
from repro.faults import ResilientSUT
from repro.fleet import ReplicaSet
from repro.sut.echo import EchoSUT


def one_query():
    return Query(id=1, samples=(QuerySample(id=1, index=0),))


@pytest.mark.parametrize("make", [
    lambda: ReplicaSet(lambda index: EchoSUT()),
    lambda: ResilientSUT(EchoSUT()),
    lambda: SelfHealingSUT(EchoSUT()),
], ids=["fleet", "resilient", "healing"])
def test_issue_query_before_start_run_names_start_run(make):
    with pytest.raises(RuntimeError, match="start_run was never called"):
        make().issue_query(one_query())


def test_an_unstarted_sut_can_be_copied_and_pickled_and_still_refuses():
    sut = EchoSUT(latency=0.001)
    for clone in (copy.copy(sut), copy.deepcopy(sut),
                  pickle.loads(pickle.dumps(sut))):
        assert clone._loop is sut._loop  # the one unstarted object
        with pytest.raises(RuntimeError, match="start_run was never called"):
            clone.loop
        with pytest.raises(RuntimeError, match="start_run was never called"):
            clone.issue_query(one_query())
