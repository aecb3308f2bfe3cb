"""Unit tests for the persistent job store (repro.service.queue)."""

import sys
import threading
import time

import pytest

from repro.api import OneIntervalInstance, Problem, from_json, to_json
from repro.service import JOB_STATES, TERMINAL_STATES, JobQueue, JobRecord
from repro.service.queue import MAX_ATTEMPTS


def _problem_json(pairs=((0, 2), (1, 3))) -> str:
    instance = OneIntervalInstance.from_pairs(list(pairs))
    return to_json(Problem(objective="gaps", instance=instance))


@pytest.fixture
def store(tmp_path):
    queue = JobQueue(str(tmp_path / "jobs.db"))
    yield queue
    queue.close()


class TestSubmitAndLookup:
    def test_submit_returns_queued_record(self, store):
        record = store.submit(_problem_json(), client_id="alice", priority=3)
        assert record.state == "queued"
        assert record.client_id == "alice"
        assert record.priority == 3
        assert record.attempts == 0
        assert store.get(record.id) == record

    def test_unknown_id_is_none(self, store):
        assert store.get("nope") is None

    def test_problem_round_trips_through_record(self, store):
        text = _problem_json()
        record = store.submit(text)
        assert to_json(record.problem_obj()) == text

    def test_list_jobs_newest_first_and_state_filter(self, store):
        first = store.submit(_problem_json())
        second = store.submit(_problem_json())
        assert [r.id for r in store.list_jobs()] == [second.id, first.id]
        store.request_cancel(first.id)
        assert [r.id for r in store.list_jobs(state="queued")] == [second.id]


class TestClaim:
    def test_claim_moves_to_running_and_counts_attempt(self, store):
        record = store.submit(_problem_json())
        (claimed,) = store.claim(5)
        assert claimed.id == record.id
        assert claimed.state == "running"
        assert claimed.attempts == 1
        assert store.get(record.id).state == "running"

    def test_claim_orders_by_priority_then_fifo(self, store):
        low = store.submit(_problem_json(), priority=0)
        high = store.submit(_problem_json(), priority=5)
        mid_a = store.submit(_problem_json(), priority=1)
        mid_b = store.submit(_problem_json(), priority=1)
        order = [r.id for r in store.claim(10)]
        assert order == [high.id, mid_a.id, mid_b.id, low.id]

    def test_claim_respects_limit(self, store):
        for _ in range(5):
            store.submit(_problem_json())
        assert len(store.claim(2)) == 2
        assert store.counts()["running"] == 2

    def test_claim_finalizes_cancel_requested_queued_jobs(self, store):
        record = store.submit(_problem_json())
        store.request_cancel(record.id)
        assert store.claim(5) == []
        assert store.get(record.id).state == "cancelled"


class TestComplete:
    def test_complete_done(self, store):
        record = store.submit(_problem_json())
        store.claim(1)
        state = store.complete(record.id, result_json='{"ok":1}')
        assert state == "done"
        final = store.get(record.id)
        assert final.state == "done"
        assert final.result == '{"ok":1}'
        assert final.finished_at is not None

    def test_complete_failed_records_error(self, store):
        record = store.submit(_problem_json())
        store.claim(1)
        state = store.complete(
            record.id, result_json='{"status":"error"}', error="boom", failed=True
        )
        assert state == "error"
        assert store.get(record.id).error == "boom"

    def test_cancel_requested_wins_and_discards_result(self, store):
        record = store.submit(_problem_json())
        store.claim(1)
        assert store.request_cancel(record.id) == "cancelling"
        state = store.complete(record.id, result_json='{"ok":1}')
        assert state == "cancelled"
        final = store.get(record.id)
        assert final.state == "cancelled"
        assert final.result is None

    def test_complete_non_running_is_noop(self, store):
        record = store.submit(_problem_json())
        assert store.complete(record.id, result_json="{}") == "queued"
        assert store.get(record.id).state == "queued"
        assert store.complete("nope", result_json="{}") is None


class TestCancel:
    def test_cancel_queued_is_immediate(self, store):
        record = store.submit(_problem_json())
        assert store.request_cancel(record.id) == "cancelled"
        assert store.get(record.id).state == "cancelled"

    def test_cancel_terminal_returns_state(self, store):
        record = store.submit(_problem_json())
        store.claim(1)
        store.complete(record.id, result_json="{}")
        assert store.request_cancel(record.id) == "done"

    def test_cancel_unknown_is_none(self, store):
        assert store.request_cancel("nope") is None


class TestRecovery:
    def test_recover_requeues_running(self, store):
        record = store.submit(_problem_json())
        store.claim(1)
        assert store.recover() == 1
        revived = store.get(record.id)
        assert revived.state == "queued"
        assert revived.started_at is None
        assert revived.attempts == 1  # the interrupted attempt stays visible

    def test_recover_below_the_cap_requeues_with_attempts_kept(self, store):
        record = store.submit(_problem_json())
        for _ in range(MAX_ATTEMPTS - 1):
            store.claim(1)
            assert store.recover() == 1
        revived = store.get(record.id)
        assert revived.state == "queued"
        assert revived.attempts == MAX_ATTEMPTS - 1
        assert revived.error is None

    def test_recover_at_the_cap_retires_the_job_as_poison(self, store):
        poison = store.submit(_problem_json())
        for _ in range(MAX_ATTEMPTS - 1):
            store.claim(1)
            store.recover()
        (claimed,) = store.claim(1)
        assert claimed.attempts == MAX_ATTEMPTS
        innocent = store.submit(_problem_json())
        store.claim(1)
        waiter = _Waiter(store, poison.id, 10.0)
        waiter.start()
        _until_held(store, 1)
        assert store.recover() == 1  # only the job below the cap
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert waiter.record.state == "error"
        assert store.wait_stats()["woken"] == 1
        final = store.get(poison.id)
        assert final.state == "error"
        assert final.error.startswith("poison:")
        assert final.attempts == MAX_ATTEMPTS
        assert final.result is None
        assert final.started_at <= final.finished_at
        assert store.get(innocent.id).state == "queued"

    def test_state_survives_reopen(self, tmp_path):
        path = str(tmp_path / "jobs.db")
        first = JobQueue(path)
        record = first.submit(_problem_json(), client_id="alice")
        first.claim(1)
        first.close()

        second = JobQueue(path)
        assert second.recover() == 1
        revived = second.get(record.id)
        assert revived.state == "queued"
        assert revived.problem == record.problem
        second.close()


class TestOperationalViews:
    def test_counts_cover_every_state(self, store):
        assert store.counts() == {state: 0 for state in JOB_STATES}
        done = store.submit(_problem_json())
        store.submit(_problem_json())
        store.claim(1)
        store.complete(done.id, result_json="{}")
        counts = store.counts()
        assert counts["done"] == 1
        assert counts["queued"] == 1

    def test_pending_and_client_load(self, store):
        store.submit(_problem_json(), client_id="alice")
        store.submit(_problem_json(), client_id="alice")
        store.submit(_problem_json(), client_id="bob")
        assert store.pending_count() == 3
        assert store.client_load("alice") == 2
        assert store.client_load("ghost") == 0

    def test_oldest_queued_age(self, store):
        assert store.oldest_queued_age() is None
        record = store.submit(_problem_json())
        age = store.oldest_queued_age(now=record.submitted_at + 7.5)
        assert age == pytest.approx(7.5)


class TestConcurrency:
    def test_concurrent_claims_never_double_assign(self, store):
        ids = {store.submit(_problem_json()).id for _ in range(40)}
        claimed = []
        lock = threading.Lock()

        def worker():
            while True:
                batch = store.claim(3)
                if not batch:
                    return
                with lock:
                    claimed.extend(r.id for r in batch)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == sorted(ids)
        assert len(set(claimed)) == len(ids)


class _Waiter(threading.Thread):
    """Runs one ``store.wait`` on its own thread and records how it ended."""

    def __init__(self, store, job_id, timeout):
        super().__init__()
        self.store, self.job_id, self.timeout = store, job_id, timeout
        self.record = self.elapsed = None

    def run(self):
        start = time.monotonic()
        self.record = self.store.wait(self.job_id, self.timeout)
        self.elapsed = time.monotonic() - start
        self.store.close()


def _until_held(store, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while store.wait_stats()["held"] < count:
        assert time.monotonic() < deadline, store.wait_stats()
        time.sleep(0.005)


class TestHeldWaits:
    def test_terminal_job_returns_at_once_and_holds_nothing(self, store):
        record = store.submit(_problem_json())
        store.claim(1)
        store.complete(record.id, result_json="{}")
        assert store.wait(record.id, 30.0).state == "done"
        assert store.wait("nope", 30.0) is None
        assert store.wait_stats() == {"held": 0, "woken": 0, "timed_out": 0}
        assert store._waiters == {}

    def test_complete_wakes_the_waiter(self, store):
        record = store.submit(_problem_json())
        store.claim(1)
        waiter = _Waiter(store, record.id, 30.0)
        waiter.start()
        _until_held(store, 1)
        store.complete(record.id, result_json='{"ok":1}')
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert waiter.record.state == "done"
        assert waiter.record.result == '{"ok":1}'
        assert waiter.elapsed < 5.0
        assert store.wait_stats() == {"held": 0, "woken": 1, "timed_out": 0}

    def test_timeout_returns_the_pending_record(self, store):
        record = store.submit(_problem_json())
        start = time.monotonic()
        assert store.wait(record.id, 0.1).state == "queued"
        assert time.monotonic() - start >= 0.1
        assert store.wait_stats() == {"held": 0, "woken": 0, "timed_out": 1}

    def test_a_transition_wakes_only_its_own_job(self, store):
        mine = store.submit(_problem_json())
        other = store.submit(_problem_json())
        store.claim(2)
        waiter = _Waiter(store, mine.id, 0.3)
        waiter.start()
        _until_held(store, 1)
        store.complete(other.id, result_json="{}")
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert waiter.record.state == "running"
        assert waiter.elapsed >= 0.3
        assert store.wait_stats() == {"held": 0, "woken": 0, "timed_out": 1}

    def test_cancelling_a_queued_job_wakes_its_waiter(self, store):
        record = store.submit(_problem_json())
        waiter = _Waiter(store, record.id, 30.0)
        waiter.start()
        _until_held(store, 1)
        assert store.request_cancel(record.id) == "cancelled"
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert waiter.record.state == "cancelled"

    def test_cancel_of_a_running_job_wakes_at_write_back(self, store):
        record = store.submit(_problem_json())
        store.claim(1)
        waiter = _Waiter(store, record.id, 30.0)
        waiter.start()
        _until_held(store, 1)
        assert store.request_cancel(record.id) == "cancelling"  # not terminal
        time.sleep(0.05)
        assert waiter.is_alive()
        assert store.complete(record.id, result_json="{}") == "cancelled"
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert waiter.record.state == "cancelled"

    def test_claim_finalizing_a_cancelled_job_wakes_its_waiter(self, store):
        # A running job flagged for cancel and then recovered is queued with
        # the flag set; the next claim finalizes it instead of running it.
        record = store.submit(_problem_json())
        store.claim(1)
        store.request_cancel(record.id)
        store.recover()
        waiter = _Waiter(store, record.id, 30.0)
        waiter.start()
        _until_held(store, 1)
        assert store.claim(5) == []
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert waiter.record.state == "cancelled"

    def test_release_wakes_every_waiter_and_later_waits_return_at_once(
        self, store
    ):
        jobs = [store.submit(_problem_json()).id for _ in range(3)]
        waiters = [_Waiter(store, job_id, 30.0) for job_id in jobs + jobs[:1]]
        for waiter in waiters:
            waiter.start()
        _until_held(store, 4)
        store.release_waiters()
        for waiter in waiters:
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
            assert waiter.record.state == "queued"
        start = time.monotonic()
        assert store.wait(jobs[0], 30.0).state == "queued"
        assert time.monotonic() - start < 1.0
        assert store.wait_stats() == {"held": 0, "woken": 4, "timed_out": 0}

    def test_registry_is_empty_once_the_waits_return(self, store):
        # Several waiters per job, ending every way a wait can end.
        done, cancelled, pending = (store.submit(_problem_json()).id for _ in range(3))
        store.claim(1)  # `done` runs
        waiters = [
            _Waiter(store, job_id, timeout)
            for job_id, timeout in [
                (done, 30.0), (done, 30.0), (cancelled, 30.0), (pending, 0.2),
            ]
        ]
        for waiter in waiters:
            waiter.start()
        _until_held(store, 4)
        store.complete(done, result_json="{}")
        store.request_cancel(cancelled)
        for waiter in waiters:
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
        assert [w.record.state for w in waiters] == [
            "done", "done", "cancelled", "queued",
        ]
        assert store._waiters == {}
        assert store.wait_stats() == {"held": 0, "woken": 3, "timed_out": 1}


    def test_no_wake_up_is_lost_under_a_short_switch_interval(self, store):
        # Completions race the waiters' registration: each waiter either
        # finds its job done or is woken; none may sit out its timeout.
        jobs = [store.submit(_problem_json()).id for _ in range(8)]
        store.claim(8)
        waiters = [_Waiter(store, jobs[i % 8], 10.0) for i in range(32)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for waiter in waiters:
                waiter.start()
            for job_id in jobs:
                store.complete(job_id, result_json="{}")
            for waiter in waiters:
                waiter.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(waiter.is_alive() for waiter in waiters)
        assert all(waiter.record.state == "done" for waiter in waiters)
        stats = store.wait_stats()
        assert stats["held"] == 0
        assert stats["timed_out"] == 0
        assert store._waiters == {}


class TestJobRecordCodec:
    def test_round_trips_through_facade_json(self, store):
        record = store.submit(_problem_json(), client_id="alice", priority=2)
        store.claim(1)
        # Canonical compact text, as the daemon's to_json write-back produces:
        # the codec re-canonicalizes embedded payloads on decode.
        store.complete(record.id, result_json='{"ok":1}')
        final = store.get(record.id)
        assert isinstance(from_json(to_json(final)), JobRecord)
        assert from_json(to_json(final)) == final

    def test_terminal_states_constant(self):
        assert TERMINAL_STATES == {"done", "error", "cancelled"}
        assert TERMINAL_STATES < set(JOB_STATES)
