"""Seeded command lists for the three benchmark workloads.

A workload is a *round*: a fixed list of slots, each slot one CLI command.
The seed draws every choice that leaves the amount of work alone (upper
weight, spelling of options, cost-matched degrees, the parameters of the
cheap catalog commands); the slots that set the cost are fixed, so every
seed asks the engine for the same amount of elimination and the figures
of two seeds can be compared.  The benchmark replays the round, reshuffled,
until its time is up, so every command repeats and its output can be
checked for byte identity.

A :class:`Command` carries the argv the program sees and the facts the
oracle needs to check the output; the program never sees the facts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("plane-chase", "curve-jacobian", "catalog-sweep")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    kind: str  # oracle entry: t1, rigidity, jacobian, cech, atiyah, usage, scope
    params: dict = field(default_factory=dict, hash=False, compare=False)

    def text(self) -> str:
        return " ".join(self.argv)


def _window(rng: random.Random, lo: int, hi: int) -> list[str]:
    spec = f"{lo}..{hi}"
    return [f"--weights={spec}"] if rng.random() < 0.5 else ["--weights", spec]


def _opt(rng: random.Random, name: str, value: int) -> list[str]:
    return [f"--{name}={value}"] if rng.random() < 0.5 else [f"--{name}", str(value)]


def _t1(rng: random.Random, variety: str, lo: int, hi: int, order: int) -> Command:
    argv = ["t1", variety, *_window(rng, lo, hi)]
    if order != 1:
        argv += ["--order", str(order)]
    return Command(tuple(argv), "t1", {"variety": variety, "lo": lo, "hi": hi, "order": order})


def _rigidity(rng: random.Random, variety: str, lo: int, hi: int) -> Command:
    argv = ("rigidity", variety, *_window(rng, lo, hi))
    return Command(argv, "rigidity", {"variety": variety, "lo": lo, "hi": hi})


def _jacobian(rng: random.Random, d: int, m: int, trace: bool) -> Command:
    opts = [_opt(rng, "d", d), _opt(rng, "weight", m)] + ([["--trace"]] if trace else [])
    rng.shuffle(opts)
    argv = ("jacobian", *(tok for opt in opts for tok in opt))
    return Command(argv, "jacobian", {"d": d, "m": m, "trace": trace})


# Slot costs are set so that one round takes 2-4 s and, sorted by cost,
# three middle slots of about equal cost set the median and the two
# equal-cost heaviest slots set the tail.  A 35 s run then holds more than
# ten samples of the heaviest pair, and the median and the tail each fall
# inside a block of like commands whatever the number of rounds.

# (kind, degree, lowest weight) of each plane slot, cheapest first.  The
# cost grows steeply with d * |lo|, the twist of the largest Euler top map;
# the last two eliminate the same matrices.
PLANE_SLOTS = (
    ("t1", 6, -3),
    ("t2", 3, -6),
    ("t2", 5, -4),
    ("rigidity", 5, -4),
    ("rigidity", 4, -5),
    ("t1", 4, -6),
    ("rigidity", 4, -6),
)


def plane_chase(rng: random.Random) -> list[Command]:
    """Order-1 and order-2 tables and rigidity scans of veronese:2:d.  Each
    eliminates one Euler top map per weight: tall, one nonzero per row,
    full column rank."""
    cmds = []
    for kind, d, lo in PLANE_SLOTS:
        variety, hi = f"veronese:2:{d}", rng.randint(0, 3)
        if kind == "rigidity":
            cmds.append(_rigidity(rng, variety, lo, hi))
        else:
            cmds.append(_t1(rng, variety, lo, hi, 1 if kind == "t1" else 2))
    return cmds


# Each inner tuple is one slot, cheapest first; the seed picks one (d, m)
# from it, and the pairs inside a slot cost about the same.  Weight -2 is
# the one weight here whose restricted Euler block is not empty, so it is
# eliminated twice in one command.
JACOBIAN_SLOTS = (
    ((6, -1), (7, -1), (8, -1), (9, -1), (10, -1), (11, -1)),
    ((6, -2), (7, -2), (8, -2), (9, -2), (10, -2), (11, -2)),
    ((7, 0),),
    ((5, 2),),
    ((6, 1),),
    ((8, 0),),
    ((6, 2),),
)


def curve_jacobian(rng: random.Random) -> list[Command]:
    """The two-route count with --trace, so both the restricted Euler block
    and the graded Jacobian (rank-deficient, integer entries, fill-in) are
    eliminated."""
    return [_jacobian(rng, *rng.choice(slot), trace=True) for slot in JACOBIAN_SLOTS]


BAD_DESCRIPTORS = ("twisted:3", "veronese:2", "segre:x", "rnc:0", "delpezzo:9")


def catalog_sweep(rng: random.Random) -> list[Command]:
    """Cheap commands over the whole catalog plus requests that must be
    refused with exit 2 or 3.  Start-up dominates each of them."""
    cmds: list[Command] = []
    for _ in range(3):
        lo = rng.randint(-8, -2)
        cmds.append(_t1(rng, f"rnc:{rng.randint(2, 8)}", lo, rng.randint(0, 3), 1))
    # the plane's Euler chase on small twists (d * |lo| <= 9)
    cmds.append(_t1(rng, f"veronese:2:{rng.randint(2, 3)}", rng.randint(-3, -2), rng.randint(0, 3), rng.randint(1, 2)))
    cmds.append(_rigidity(rng, f"veronese:2:{rng.randint(2, 3)}", rng.randint(-3, -2), rng.randint(0, 3)))
    for _ in range(2):
        cmds.append(_t1(rng, f"segre:{rng.randint(1, 4)}", rng.randint(-6, -2), rng.randint(0, 3), 2))
    for _ in range(2):
        variety = f"product:{rng.randint(1, 4)}:{rng.randint(1, 4)}"
        cmds.append(_t1(rng, variety, rng.randint(-6, -2), rng.randint(0, 3), 1))
    for _ in range(3):
        cmds.append(_rigidity(rng, f"delpezzo:{rng.randint(1, 8)}", rng.randint(-6, -2), rng.randint(0, 3)))
    for _ in range(3):
        i, k = rng.randint(0, 1), rng.randint(-8, 8)
        cmds.append(Command(("cech", *_opt(rng, "i", i), *_opt(rng, "k", k)), "cech", {"i": i, "k": k}))
    for _ in range(2):
        n = rng.randint(2, 4)
        cmds.append(Command(("atiyah", *_opt(rng, "n", n)), "atiyah", {"n": n}))
    for _ in range(3):
        cmds.append(_jacobian(rng, rng.randint(2, 9), rng.randint(-2, 2), trace=False))
    # refused requests: out of scope (exit 3) and usage errors (exit 2)
    cmds.append(Command(("t1", f"delpezzo:{rng.randint(1, 8)}"), "scope"))
    cmds.append(Command(("t1", f"veronese:{rng.randint(3, 4)}:2", "--order", "2"), "scope"))
    cmds.append(Command(("t1", rng.choice(BAD_DESCRIPTORS)), "usage"))
    lo = rng.randint(-3, 3)
    cmds.append(Command(("rigidity", f"rnc:{rng.randint(2, 5)}", f"--weights={lo}..{lo - 1}"), "usage"))
    return cmds


_BUILDERS = {"plane-chase": plane_chase, "curve-jacobian": curve_jacobian, "catalog-sweep": catalog_sweep}


def generate(workload: str, seed: int) -> list[Command]:
    """The round of ``workload`` for ``seed``: the same seed gives the same
    list."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"))
