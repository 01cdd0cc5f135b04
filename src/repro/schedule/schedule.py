"""The :class:`Schedule` container: a validated set of timed tasks."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.schedule.tasks import ScheduledTask, TaskKind


class Schedule:
    """An assay execution procedure: operations plus fluidic tasks.

    The container preserves insertion order, indexes tasks by id, and can
    check itself for the resource conflicts the formulation forbids
    (Eqs. 3, 8, 19, 20).
    """

    def __init__(self, tasks: Iterable[ScheduledTask] = ()):
        self._tasks: Dict[str, ScheduledTask] = {}
        for task in tasks:
            self.add(task)

    # -- mutation ---------------------------------------------------------------

    def add(self, task: ScheduledTask) -> None:
        """Add a task; ids must be unique."""
        if task.id in self._tasks:
            raise SchedulingError(f"duplicate task id {task.id!r}")
        self._tasks[task.id] = task

    def replace(self, task: ScheduledTask) -> None:
        """Replace the task with the same id (typically after re-timing)."""
        if task.id not in self._tasks:
            raise SchedulingError(f"cannot replace unknown task {task.id!r}")
        self._tasks[task.id] = task

    def remove(self, task_id: str) -> ScheduledTask:
        """Remove and return a task."""
        try:
            return self._tasks.pop(task_id)
        except KeyError:
            raise SchedulingError(f"cannot remove unknown task {task_id!r}") from None

    # -- access ------------------------------------------------------------------

    def __iter__(self) -> Iterator[ScheduledTask]:
        return iter(self._tasks.values())

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def get(self, task_id: str) -> ScheduledTask:
        """Task by id."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise SchedulingError(f"unknown task {task_id!r}") from None

    def tasks(self, kind: Optional[TaskKind] = None) -> List[ScheduledTask]:
        """All tasks, optionally filtered by kind, in start-time order."""
        selected = (
            t for t in self._tasks.values() if kind is None or t.kind is kind
        )
        return sorted(selected, key=lambda t: (t.start, t.id))

    def operations(self) -> List[ScheduledTask]:
        """All biochemical operation tasks."""
        return self.tasks(TaskKind.OPERATION)

    def flow_tasks(self) -> List[ScheduledTask]:
        """All tasks that occupy flow paths."""
        return [t for t in self.tasks() if t.kind.is_flow]

    def operation_task(self, op_id: str) -> ScheduledTask:
        """The OPERATION task executing sequencing-graph node ``op_id``."""
        for task in self._tasks.values():
            if task.kind is TaskKind.OPERATION and task.op_id == op_id:
                return task
        raise SchedulingError(f"no operation task for {op_id!r}")

    # -- metrics ------------------------------------------------------------------

    @property
    def makespan(self) -> int:
        """Completion time of the whole schedule (:math:`T_{assay}`)."""
        return max((t.end for t in self._tasks.values()), default=0)

    # -- validation ---------------------------------------------------------------

    def conflicts(self) -> List[Tuple[str, str]]:
        """Pairs of task ids that overlap in time on a shared chip node.

        Wash tasks are buffer flows, so a wash/flow overlap is still a
        conflict (Eq. 19); only an excess-removal that has been *absorbed*
        into a wash (and therefore removed from the schedule) escapes it.
        """
        ordered = self.tasks()
        bad: List[Tuple[str, str]] = []
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if b.start >= a.end:
                    break
                if a.conflicts_with(b):
                    bad.append((a.id, b.id))
        return bad

    def validate(self, dependencies: Iterable[Tuple[str, str]] = ()) -> None:
        """Raise on any resource conflict or violated (task-id) precedence.

        ``dependencies`` are (earlier_task_id, later_task_id) pairs that
        must satisfy ``end(earlier) <= start(later)``.
        """
        bad = self.conflicts()
        if bad:
            raise SchedulingError(f"resource conflicts: {bad[:5]}")
        for before, after in dependencies:
            if self.get(before).end > self.get(after).start:
                raise SchedulingError(
                    f"precedence violated: {before!r} ends at {self.get(before).end}"
                    f" but {after!r} starts at {self.get(after).start}"
                )

    # -- transforms -----------------------------------------------------------------

    def mapped(self, fn: Callable[[ScheduledTask], ScheduledTask]) -> "Schedule":
        """A new schedule with ``fn`` applied to every task."""
        return Schedule(fn(t) for t in self._tasks.values())

    def copy(self) -> "Schedule":
        """A shallow copy (tasks are immutable)."""
        return Schedule(self._tasks.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = {}
        for t in self._tasks.values():
            kinds[t.kind.value] = kinds.get(t.kind.value, 0) + 1
        return f"Schedule({len(self)} tasks, makespan={self.makespan}, {kinds})"
