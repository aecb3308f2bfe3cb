"""JSON round-trip for instances, problems, schedules and results.

Every value object of the façade serializes to a tagged plain dict
(``{"type": ..., ...}``) via :func:`to_dict` and back via :func:`from_dict`;
:func:`to_json` / :func:`from_json` wrap those in canonical JSON text.  The
encoding is the wire format of the service boundary, so it is deliberately
boring: only JSON-native values, string keys, sorted keys in the text form,
and no Python-specific constructs.

Round-trip guarantee: ``from_json(to_json(x)) == x`` for all supported
types.  ``SolveResult.wall_time`` is measurement noise and is excluded from
the canonical form (and from ``SolveResult`` equality), which also makes
serial and parallel batch outputs byte-identical.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from ..core.exceptions import InvalidInstanceError
from ..core.jobs import (
    Job,
    MultiIntervalInstance,
    MultiIntervalJob,
    MultiprocessorInstance,
    OneIntervalInstance,
)
from ..core.schedule import MultiprocessorSchedule, Schedule
from .problem import Problem
from .result import SolveResult

__all__ = ["to_dict", "from_dict", "to_json", "from_json"]


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------
def _encode_job(job: Job) -> Dict[str, Any]:
    return {
        "type": "job",
        "release": job.release,
        "deadline": job.deadline,
        "name": job.name,
    }


def _encode_multi_interval_job(job: MultiIntervalJob) -> Dict[str, Any]:
    return {"type": "multi_interval_job", "times": list(job.times), "name": job.name}


def _encode_one_interval(instance: OneIntervalInstance) -> Dict[str, Any]:
    return {
        "type": "one_interval_instance",
        "jobs": [_encode_job(job) for job in instance.jobs],
    }


def _encode_multiprocessor(instance: MultiprocessorInstance) -> Dict[str, Any]:
    return {
        "type": "multiprocessor_instance",
        "num_processors": instance.num_processors,
        "jobs": [_encode_job(job) for job in instance.jobs],
    }


def _encode_multi_interval(instance: MultiIntervalInstance) -> Dict[str, Any]:
    return {
        "type": "multi_interval_instance",
        "jobs": [_encode_multi_interval_job(job) for job in instance.jobs],
    }


def _encode_problem(problem: Problem) -> Dict[str, Any]:
    return {
        "type": "problem",
        "objective": problem.objective,
        "instance": to_dict(problem.instance),
        "alpha": problem.alpha,
        "max_gaps": problem.max_gaps,
    }


def _encode_schedule(schedule: Schedule) -> Dict[str, Any]:
    return {
        "type": "schedule",
        "instance": to_dict(schedule.instance),
        "assignment": {str(job): t for job, t in sorted(schedule.assignment.items())},
    }


def _encode_multiprocessor_schedule(
    schedule: MultiprocessorSchedule,
) -> Dict[str, Any]:
    return {
        "type": "multiprocessor_schedule",
        "instance": to_dict(schedule.instance),
        "assignment": {
            str(job): [proc, t]
            for job, (proc, t) in sorted(schedule.assignment.items())
        },
    }


def _encode_result(result: SolveResult) -> Dict[str, Any]:
    return {
        "type": "solve_result",
        "status": result.status,
        "objective": result.objective,
        "value": result.value,
        "solver": result.solver,
        "schedule": None if result.schedule is None else to_dict(result.schedule),
        "guarantee_factor": result.guarantee_factor,
        "extra": result.extra,
    }


_ENCODERS: Dict[type, Callable[[Any], Dict[str, Any]]] = {
    Job: _encode_job,
    MultiIntervalJob: _encode_multi_interval_job,
    OneIntervalInstance: _encode_one_interval,
    MultiprocessorInstance: _encode_multiprocessor,
    MultiIntervalInstance: _encode_multi_interval,
    Problem: _encode_problem,
    Schedule: _encode_schedule,
    MultiprocessorSchedule: _encode_multiprocessor_schedule,
    SolveResult: _encode_result,
}


def to_dict(obj: Any) -> Dict[str, Any]:
    """Encode a façade value object as a tagged JSON-native dict."""
    encoder = _ENCODERS.get(type(obj))
    if encoder is None:
        raise InvalidInstanceError(
            f"cannot serialize objects of type {type(obj).__name__}; "
            f"supported: {sorted(t.__name__ for t in _ENCODERS)}"
        )
    return encoder(obj)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------
def _decode_job(data: Dict[str, Any]) -> Job:
    return Job(
        release=int(data["release"]),
        deadline=int(data["deadline"]),
        name=data.get("name", ""),
    )


def _decode_multi_interval_job(data: Dict[str, Any]) -> MultiIntervalJob:
    return MultiIntervalJob(times=data["times"], name=data.get("name", ""))


def _decode_one_interval(data: Dict[str, Any]) -> OneIntervalInstance:
    return OneIntervalInstance(jobs=[_decode_job(j) for j in data["jobs"]])


def _decode_multiprocessor(data: Dict[str, Any]) -> MultiprocessorInstance:
    return MultiprocessorInstance(
        jobs=[_decode_job(j) for j in data["jobs"]],
        num_processors=int(data["num_processors"]),
    )


def _decode_multi_interval(data: Dict[str, Any]) -> MultiIntervalInstance:
    return MultiIntervalInstance(
        jobs=[_decode_multi_interval_job(j) for j in data["jobs"]]
    )


def _decode_problem(data: Dict[str, Any]) -> Problem:
    return Problem(
        objective=data["objective"],
        instance=from_dict(data["instance"]),
        alpha=data.get("alpha"),
        max_gaps=data.get("max_gaps"),
    )


def _decode_schedule(data: Dict[str, Any]) -> Schedule:
    return Schedule(
        instance=from_dict(data["instance"]),
        assignment={int(job): int(t) for job, t in data["assignment"].items()},
    )


def _decode_multiprocessor_schedule(data: Dict[str, Any]) -> MultiprocessorSchedule:
    return MultiprocessorSchedule(
        instance=from_dict(data["instance"]),
        assignment={
            int(job): (int(slot[0]), int(slot[1]))
            for job, slot in data["assignment"].items()
        },
    )


def _decode_result(data: Dict[str, Any]) -> SolveResult:
    schedule = data.get("schedule")
    return SolveResult(
        status=data["status"],
        objective=data["objective"],
        value=data["value"],
        solver=data["solver"],
        schedule=None if schedule is None else from_dict(schedule),
        guarantee_factor=data.get("guarantee_factor"),
        extra=data.get("extra") or {},
    )


_DECODERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "job": _decode_job,
    "multi_interval_job": _decode_multi_interval_job,
    "one_interval_instance": _decode_one_interval,
    "multiprocessor_instance": _decode_multiprocessor,
    "multi_interval_instance": _decode_multi_interval,
    "problem": _decode_problem,
    "schedule": _decode_schedule,
    "multiprocessor_schedule": _decode_multiprocessor_schedule,
    "solve_result": _decode_result,
}


def from_dict(data: Dict[str, Any]) -> Any:
    """Decode a tagged dict produced by :func:`to_dict`."""
    if not isinstance(data, dict) or "type" not in data:
        raise InvalidInstanceError(
            f"expected a tagged dict with a 'type' key, got {data!r}"
        )
    decoder = _DECODERS.get(data["type"])
    if decoder is None:
        raise InvalidInstanceError(
            f"unknown serialized type {data['type']!r}; "
            f"supported: {sorted(_DECODERS)}"
        )
    return decoder(data)


# ---------------------------------------------------------------------------
# JSON text
# ---------------------------------------------------------------------------
def to_json(obj: Any, *, indent: Optional[int] = None) -> str:
    """Serialize to canonical JSON text (sorted keys; compact when unindented)."""
    separators = (",", ":") if indent is None else None
    return json.dumps(to_dict(obj), sort_keys=True, indent=indent, separators=separators)


def from_json(text: str) -> Any:
    """Inverse of :func:`to_json`."""
    return from_dict(json.loads(text))
