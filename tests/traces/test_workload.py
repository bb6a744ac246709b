"""Unit tests for transactions and workloads."""

import pytest

from repro.traces.workload import Transaction, Workload, percentile


def make_workload(amounts):
    return Workload(
        [
            Transaction(txid=i, sender=0, receiver=1, amount=a, time=float(i))
            for i, a in enumerate(amounts)
        ]
    )


class TestTransaction:
    def test_fields(self):
        txn = Transaction(txid=1, sender="a", receiver="b", amount=5.0, time=2.0)
        assert txn.amount == 5.0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            Transaction(txid=0, sender="a", receiver="b", amount=-1.0)

    def test_negative_time_rejected(self):
        # Times count from the start of the trace; the concurrent engine
        # would otherwise start such a payment at 0.
        with pytest.raises(ValueError):
            Transaction(txid=0, sender="a", receiver="b", amount=1.0, time=-1.0)

    def test_self_payment_rejected(self):
        with pytest.raises(ValueError):
            Transaction(txid=0, sender="a", receiver="a", amount=1.0)

    def test_frozen(self):
        txn = Transaction(txid=0, sender="a", receiver="b", amount=1.0)
        with pytest.raises(AttributeError):
            txn.amount = 2.0


class TestWorkload:
    def test_total_volume(self):
        assert make_workload([1.0, 2.0, 3.0]).total_volume == 6.0

    def test_iteration_order(self):
        workload = make_workload([5.0, 1.0])
        assert [t.amount for t in workload] == [5.0, 1.0]

    def test_head(self):
        workload = make_workload([1.0, 2.0, 3.0])
        assert len(workload.head(2)) == 2

    def test_pairs(self):
        assert make_workload([1.0]).pairs() == {(0, 1)}


class TestThreshold:
    def test_default_split(self):
        workload = make_workload(list(range(1, 101)))
        threshold = workload.threshold_for_mice_fraction(0.9)
        mice = [t for t in workload if t.amount < threshold]
        assert abs(len(mice) - 90) <= 1

    def test_zero_fraction_all_elephants(self):
        workload = make_workload([1.0, 2.0, 3.0])
        threshold = workload.threshold_for_mice_fraction(0.0)
        assert all(t.amount >= threshold for t in workload)

    def test_one_fraction_all_mice(self):
        workload = make_workload([1.0, 2.0, 3.0])
        threshold = workload.threshold_for_mice_fraction(1.0)
        assert all(t.amount < threshold for t in workload)

    def test_empty_workload(self):
        assert Workload().threshold_for_mice_fraction(0.9) == 0.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            make_workload([1.0]).threshold_for_mice_fraction(1.5)


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
