"""PROPAGATE on the functional engine: the golden model.

An exact breadth-first worklist, one arrival at a time, driving the
per-arrival :class:`~repro.core.state.MachineState` primitives that the
timed machine drives too.  The FIFO order makes the loop
level-synchronous: seeds expand first, and every arrival they emit is
processed before any arrival emitted by a level-1 expansion, so
``max_hops`` is also the number of synchronous steps a SIMD array
would take.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..isa.instructions import Propagate
from .state import MachineState, WorkReport


@dataclass
class PropagationOutcome:
    """Everything one PROPAGATE produced."""

    work: WorkReport = field(default_factory=WorkReport)
    #: Number of simultaneously activated source nodes (α, §II-C).
    alpha: int = 0
    #: Longest path any marker traveled (hops).
    max_hops: int = 0
    #: Cross-cluster activation messages emitted.
    remote_messages: int = 0
    #: Total marker deliveries.
    arrivals: int = 0


def propagate(
    state: MachineState, instruction: Propagate
) -> PropagationOutcome:
    """Run one PROPAGATE to its fixpoint over the shared machine state."""
    ctx = state.make_context(instruction)
    work = WorkReport()
    queue = deque()
    deliver = state.deliver

    for cid in range(state.num_clusters):
        seeds, seed_work = state.seeds(ctx, cid)
        work.merge(seed_work)
        # Seeds are expanded directly: the origin node re-emits the
        # marker without receiving it.
        for seed in seeds:
            local_out, remote_out, slots, fp_ops = deliver(
                ctx, seed, seed=True)
            work.slots += slots
            work.fp_ops += fp_ops
            work.messages += len(remote_out)
            queue.extend(local_out)
            queue.extend(remote_out)

    arrivals = slots_total = fp_total = messages = 0
    while queue:
        local_out, remote_out, slots, fp_ops = deliver(ctx, queue.popleft())
        arrivals += 1
        slots_total += slots
        fp_total += fp_ops
        messages += len(remote_out)
        queue.extend(local_out)
        queue.extend(remote_out)
    # Each delivery visits one node and sets one marker bit.
    work.nodes += arrivals
    work.sets += arrivals
    work.slots += slots_total
    work.fp_ops += fp_total
    work.messages += messages

    return PropagationOutcome(
        work=work,
        alpha=ctx.alpha,
        max_hops=ctx.max_hops,
        remote_messages=ctx.remote_messages,
        arrivals=ctx.total_arrivals,
    )
