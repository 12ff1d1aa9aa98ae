"""Workload definitions shared by the orchestrator and its worker processes.

Standard library only: the orchestrator imports this module without numpy.

A workload is a list of CLI commands run in a closed loop (each starts after
the previous one ends) over seeded instance sets.  Every set holds the same
instances with different seeds, so a run (each command once on each set)
averages over several draws of the inputs.  How many sets a run holds
follows from ``--seconds`` alone, never from how fast the code is, so that
two versions of the program always do the same work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

SCALES = ("full", "toy")
HELD_OUT_SEED = 9001
# Each set is set up repeatedly until this many seconds have passed, and
# its set-up time is the mean over the repeats (see worker.do_setup).
SETUP_MIN_S = 1.0


@dataclass(frozen=True)
class Instance:
    """A model-II simulation instance; ``missing`` is the NA fraction of Y."""

    n: int
    p: int
    q: int
    r_star: int
    missing: float = 0.0
    snr: float = 1.0
    rho: float = 0.3


@dataclass(frozen=True)
class Command:
    """One CLI call: ``fit`` (with --method) or ``paths`` on one instance.

    ``metric`` names the per-command end-to-end timing; ``budget_s`` is the
    wall time above which the call counts as a timeout.
    """

    metric: str
    kind: str
    instance: str
    args: tuple
    budget_s: float
    rank_limit: int | None = None
    truth: bool = True
    max_steps: int | None = None


@dataclass(frozen=True)
class Workload:
    """``round_s`` is about the time of one round (every command once on
    one set) on the code the benchmark was defined on; a run of ``seconds``
    measures ``sets_for(seconds)`` sets."""

    name: str
    why: str
    round_s: float
    instances: dict
    commands: tuple
    # (instance, run_path keyword arguments, normalize X) for the
    # retained-bytes probe; None when the workload runs no stagewise path.
    memory_probe: tuple | None = None

    def sets_for(self, seconds):
        return max(1, int(seconds // self.round_s))


def _fit(metric, inst, method, budget, rank=None, extra=()):
    args = ["--method", method]
    if rank is not None:
        args += ["--rank", str(rank)]
    return Command(metric, "fit", inst, tuple(args) + tuple(extra), budget,
                   rank_limit=rank)


def _paths(metric, inst, epsilon, steps, budget):
    args = ("--epsilon", str(epsilon), "--criterion", "none",
            "--max-steps", str(steps))
    return Command(metric, "paths", inst, args, budget, truth=False,
                   max_steps=steps)


def _full():
    eps = ("--epsilon", "0.2")
    dense = Workload(
        name="dense_stagewise",
        why="unmasked stagewise kernel, large CSV reads and a 3000-step"
            " path.jsonl write; baselines only run the RRR pilot",
        round_s=5.0,
        instances={
            "B": Instance(n=200, p=500, q=200, r_star=3),
            "K": Instance(n=100, p=1000, q=1000, r_star=3),
        },
        commands=(
            _fit("seqstl_s", "B", "seqstl", 12, 3, eps + ("--criterion", "gic")),
            _fit("parstl_r_s", "B", "parstl_r", 12, 3, eps + ("--criterion", "gic")),
            _paths("paths_s", "K", 0.05, 3000, 30),
        ),
        memory_probe=("K", {"epsilon": 0.05, "criterion": "none",
                            "max_steps": 1000}, False),
    )
    masked = Workload(
        name="masked_cv",
        why="20% missing Y: the masked residual engine, ACS direct form and"
            " k-fold CV tuning; unmasked-only speed-ups should not move it",
        round_s=4.0,
        instances={
            "M": Instance(n=120, p=200, q=100, r_star=2, missing=0.2),
            "C": Instance(n=100, p=40, q=30, r_star=1, missing=0.2),
        },
        commands=(
            _fit("seqstl_s", "M", "seqstl", 30, 2,
                 eps + ("--criterion", "cv", "--max-steps", "500")),
            _fit("seqacs_s", "C", "seqacs", 45, 1),
        ),
        memory_probe=("M", {"epsilon": 0.2, "criterion": "gic",
                            "max_steps": 1000}, True),
    )
    acs = Workload(
        name="acs_lasso",
        why="ACS in Gram form, the lasso CD path and the deflation thread"
            " pool on 2 workers; the stagewise engine does no work",
        round_s=4.5,
        # Each command fits its own draw of instance C.  How long ACS and the
        # lasso path take depends on the draw; four draws a round average
        # that out, where one shared draw would move all four together.
        instances={name: Instance(n=200, p=40, q=30, r_star=2)
                   for name in ("Ca", "Cb", "Cc", "Cd")},
        commands=(
            _fit("seqacs_s", "Ca", "seqacs", 20, 2),
            _fit("paracs_r_s", "Cb", "paracs_r", 20, 2, ("--threads", "1")),
            _fit("paracs_r_t2_s", "Cc", "paracs_r", 20, 2, ("--threads", "2")),
            _fit("lasso_s", "Cd", "lasso", 30),
        ),
    )
    return dense, masked, acs


def _toy():
    """The same workloads at sizes that run in a few seconds (self-test)."""
    out = []
    for wl in _full():
        instances = {
            name: Instance(n=30, p=16, q=12, r_star=2, missing=inst.missing)
            for name, inst in wl.instances.items()
        }
        commands = []
        for cmd in wl.commands:
            args = list(cmd.args)
            rank = cmd.rank_limit
            if "--rank" in args:
                rank = 2
                args[args.index("--rank") + 1] = "2"
            max_steps = cmd.max_steps
            if max_steps is not None:
                max_steps = 200
                args[args.index("--max-steps") + 1] = "200"
            commands.append(Command(cmd.metric, cmd.kind, cmd.instance,
                                    tuple(args), cmd.budget_s, rank,
                                    cmd.truth, max_steps))
        probe = wl.memory_probe
        if probe is not None:
            probe = (probe[0], {**probe[1], "max_steps": 100}, probe[2])
        # One set, whatever --seconds.
        out.append(Workload(wl.name, wl.why, float("inf"), instances,
                            tuple(commands), probe))
    return tuple(out)


def workloads(scale="full"):
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    return {wl.name: wl for wl in (_full() if scale == "full" else _toy())}


def sub_seed(workload, seed, set_index, label):
    """A 32-bit seed for one instance of one set, derived from the run seed."""
    key = f"{workload}:{seed}:{set_index}:{label}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little")
