"""Fair scheduling: max-min fairness across concurrent jobs.

The delay-scheduling paper the Aurora paper cites ([20], Zaharia et al.)
was developed for the Hadoop Fair Scheduler, which gives every running
job an equal share of the cluster instead of draining jobs FIFO.  This
variant plugs into the same slot/queue machinery as the capacity
scheduler: within a queue, the job with the fewest running tasks is
offered slots first (ties broken by submit time), so small jobs are not
starved behind large ones.
"""

from __future__ import annotations

from typing import List

from repro.scheduler.capacity import MapReduceScheduler
from repro.scheduler.job import Job

__all__ = ["FairScheduler"]


class FairScheduler(MapReduceScheduler):
    """Max-min fair job ordering within each queue."""

    def _per_job_launch_cap(self) -> int:
        """One launch per job per pass, so concurrent jobs interleave."""
        return 1

    def _job_order(self, queue) -> List[Job]:
        """Pending jobs, fewest running tasks first; FIFO among equals."""
        return sorted(
            queue.pending.values(),
            key=lambda job: (job.num_running, job.submit_time, job.job_id),
        )
