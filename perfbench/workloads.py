"""Seeded inputs for the three workloads, and the check of each operation.

A workload is a list of rounds; every round holds the same operations
(one per family and stratum), drawn afresh from the seeded generator,
so a run always attempts whole rounds.  Each operation is one
`eqm.cli.main` call: its argument list and a function that checks its
captured standard output and files.  Problem files are written when a
round is built, before any timing.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

import checks

MONO4 = {"kind": "monomial", "k": 4, "c": 1.0}
MONO6 = {"kind": "monomial", "k": 6, "c": 1.0}
ABS45 = {"kind": "abs_power", "a": 4.5, "c": 1.0}
EVEN2 = [0.0, 0.0, 1.0]  # p = xi^2
CUBE = [0.0, 0.0, 0.0, 1.0]  # p = xi^3
LINEAR = [0.0, 1.0]  # p = xi

ORACLE_ARGS = ["--grid-n", "2001", "--iters", "40000"]


def lin(lo, hi):
    return lambda rng: rng.uniform(lo, hi)


def log(sign, lo, hi):
    """sign * 10^u with u uniform in [lo, hi]."""
    return lambda rng: sign * 10.0 ** rng.uniform(lo, hi)


# solve-onecut: (family, vstar, p, strata of t).  Each family is one
# band for every t drawn here.
SOLVE_FAMILIES = [
    ("semicircle", [], EVEN2, [lin(0.5, 1.25), lin(1.25, 2.0)]),
    ("quartic", [MONO4], EVEN2, [log(1, 2, 4), log(1, 4, 6)]),
    ("sextic-cubic", [MONO6], CUBE, [log(-1, 2, 4), log(-1, 4, 6)]),
    ("quartic-linear", [MONO4], LINEAR, [log(-1, 0, 3), log(1, 0, 3)]),
    ("abs4.5-linear", [ABS45], LINEAR, [log(-1, 1, 3), log(1, 1, 3)]),
]
# sweep-twocut: (family, vstar, decades, scaling exponent).  Rows run
# from t0 = -10^(1+u), u in [-0.2, 0], one per decade; the quartic two-
# band certificate fails from a few times -1e6 on, so it stops there.
SWEEP_FAMILIES = [
    ("quartic", [MONO4], 5, 0.5),
    ("sextic-even", [MONO6], 3, 0.25),
]
# oracle: criterion 8's problems.  A round holds twice as many quartic
# calls (about 6 s) as semicircle calls (2-3 s), so the median call
# always falls among the quartics, not between the two sizes.
ORACLE_FAMILIES = [
    ("semicircle", [], [lin(0.5, 2.0)]),
    ("quartic", [MONO4], [lin(-10.5, -10.0), lin(-10.0, -9.5)]),
]


@dataclass
class Op:
    label: str
    argv: list
    check: Callable[[str], None]


def problem(vstar, p, t, density=None):
    obj = {"ansatz": "auto", "field": {"vstar": vstar, "p": {"coeffs": p}, "t": t}}
    if density is not None:
        obj["output"] = {"density": density}
    return obj


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)


def _read(path):
    with open(path) as fh:
        return fh.read()


def solve_round(rng, tmp):
    ops = []
    for family, vstar, p, strata in SOLVE_FAMILIES:
        for draw in strata:
            k = len(ops)
            prob = problem(vstar, p, draw(rng))
            path = os.path.join(tmp, f"solve-{k}.json")
            out = os.path.join(tmp, f"solve-{k}")
            _write(path, prob)

            def check(stdout, prob=prob, out=out):
                report = json.loads(_read(os.path.join(out, "report.json")))
                checks.check_solve_report(prob, report)
                checks.check_density(prob, report, _read(os.path.join(out, "density.csv")))

            t = prob["field"]["t"]
            ops.append(Op(f"{family} t={t:.6g}", ["solve", "--problem", path, "--out", out], check))
    return ops


def sweep_round(rng, tmp):
    ops = []
    for family, vstar, decades, exponent in SWEEP_FAMILIES:
        t_from = -(10.0 ** (1.0 + rng.uniform(-0.2, 0.0)))
        t_to = t_from * 10.0**decades
        steps = decades + 1
        prob = problem(vstar, EVEN2, t_from)
        path = os.path.join(tmp, f"sweep-{family}.json")
        _write(path, prob)

        def check(stdout, prob=prob, t_from=t_from, t_to=t_to, steps=steps, exponent=exponent):
            checks.check_sweep(prob, t_from, t_to, steps, exponent, stdout)

        argv = ["sweep", "--problem", path, f"--t-from={t_from!r}", f"--t-to={t_to!r}",
                "--steps", str(steps), "--log"]
        ops.append(Op(f"{family} t={t_from:.6g}..{t_to:.6g}", argv, check))
    return ops


def oracle_round(rng, tmp):
    ops = []
    for family, vstar, strata in ORACLE_FAMILIES:
        for draw in strata:
            k = len(ops)
            csv_path = os.path.join(tmp, f"oracle-{k}.csv")
            prob = problem(vstar, EVEN2, draw(rng), density=csv_path)
            path = os.path.join(tmp, f"oracle-{k}.json")
            _write(path, prob)

            def check(stdout, prob=prob, csv_path=csv_path):
                checks.check_oracle(prob, json.loads(stdout), _read(csv_path))

            t = prob["field"]["t"]
            ops.append(Op(f"{family} t={t:.6g}", ["oracle", "--problem", path, *ORACLE_ARGS], check))
    return ops


def warmup(workload, tmp):
    """Argument lists run once, untimed, before measuring.

    Every workload solves one semicircle, which fills eqm's cached
    Jacobi rules, normalisations and Chebyshev rules for one band.  The
    sweep workload also runs a one-row two-band sweep, which fills the
    two-band rules and creates the malloc arena that every later sweep
    thread reuses.  The oracle workload runs the minimizer once on the
    semicircle.
    """
    semi = os.path.join(tmp, "warm-semicircle.json")
    _write(semi, problem([], EVEN2, 1.0, density=os.path.join(tmp, "warm-oracle.csv")))
    argvs = [["solve", "--problem", semi, "--out", os.path.join(tmp, "warm-solve")]]
    if workload == "sweep-twocut":
        quartic = os.path.join(tmp, "warm-quartic.json")
        _write(quartic, problem([MONO4], EVEN2, -10.0))
        argvs.append(["sweep", "--problem", quartic, "--t-from=-10", "--t-to=-10", "--steps", "1"])
    if workload == "oracle":
        argvs.append(["oracle", "--problem", semi, "--grid-n", "2001", "--iters", "1"])
    return argvs


ROUNDS = {
    "solve-onecut": solve_round,
    "sweep-twocut": sweep_round,
    "oracle": oracle_round,
}
