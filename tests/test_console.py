"""Every console run's command-line behaviour, one row of ``ROWS`` per case.

A row names the argv, an optional config file (written to ``c.json``), the
exit code, a regex the whole of stderr must match, the files the run must
leave in ``out`` with the data rows of each CSV (``None``: not counted) or
that it writes nothing, the functions that must not run, and any extra
check on the parsed outputs.  A run that prints nothing on stderr prints
one strict JSON object on stdout, the bytes of its JSON file if it writes
one; a run that fails prints nothing on stdout.

``test_row`` runs a row through ``cli.main`` in the test's temporary
directory.  A row starts a fresh interpreter only where it needs one: to
read its own peak memory, and to run a replicated experiment pinned to one
CPU, whose files must equal byte for byte those of the same run on every
CPU this process may use.  The rows with a memory bound, the two 4x5
landscapes, are ``slow``: ``python -m pytest -m slow tests/test_console.py``
runs them.
"""

import argparse
import csv
import hashlib
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import pytest

import isingkit
from isingkit import cli


@dataclass(frozen=True)
class Row:
    argv: str
    code: int = 0
    err: str = ""
    config: str = None
    files: dict = None
    no_run: tuple = ()
    check: object = None
    timeout: int = 30
    one_cpu: bool = False
    # a bound on the peak memory, read from a fresh interpreter; the rows
    # that set one are ``slow``
    peak_mb: int = None


def error(pattern=".*"):
    """The stderr of a run that fails cleanly: one line, "error: ..."."""
    return f"error: {pattern}\n"


# argparse's usage message and one error line, exit code 2
USAGE = r"usage: isingkit[^\n]*\n(?: [^\n]*\n)*isingkit[^\n]*: error: [^\n]*\n"
# simulate and nucleation word a zero time cap alike, byte for byte
CAPS_TIME_ZERO = error(re.escape(
    "caps time must be a finite positive number or null, got 0.0"))
# the runs of the replicated subcommands
RUNS = ("isingkit.cli.run_nucleation", "isingkit.cli.run_infection_microscopic",
        "isingkit.cli.run_stc_audit")
FIT_ERROR = {"error": "fewer than two uncensored betas with two or more "
                      "replicas"}


def last_row(rows):
    """Volume and least perimeter of the last row of an isoperimetry
    table."""
    return [rows[-1]["v"], rows[-1]["min_perimeter"]]


def export_bytes(states, partition, blocks):
    """A check that a landscape run's three files have these sha256
    digests, so its bytes are pinned, not only its row counts."""
    want = {"states.csv": states, "partition.csv": partition,
            "blocks.csv": blocks}

    def check(out):
        got = {name: hashlib.sha256((out.out_dir / name).read_bytes())
               .hexdigest() for name in want}
        assert got == want
        return True
    return check


def config(**keys):
    return json.dumps(keys)


def growth(**flags):
    """A growth-model argv into ``out``: a small valid run but for
    ``flags``."""
    flags = {"d": 1, "gamma": 1.5, "kappa_prev": 0, "L": 1, "beta": "4,6",
             **flags}
    return " ".join(["growth-model", *(f"--{k.replace('_', '-')} {v}"
                                       for k, v in flags.items()),
                     "--out-dir out"])


NUCLEATION_CONFIG = "nucleation --config c.json --dims 3 --beta 1,2 --replicas 1"
BOX_4X5 = "landscape --dims 4,5 --h sqrt2/2 --out-dir out --partition"
STATES_4X5 = {"states.csv": 2 ** 20, "partition.csv": 2 ** 20 - 1}
STATES_4X5_SHA256 = \
    "67e8830ac91e113e85786e257bee44f34a5ca113eff3c037a3175e3f35751008"

ROWS = {
    # constants and growth-threshold
    "constants-d4": Row(
        "constants --d 4 --h 0.1", timeout=60,
        check=lambda out: len(out["stdout"]["table"]) == 4),
    "constants-d-0": Row("constants --d 0 --h 0.5", 1, error()),
    "constants-d-neg": Row("constants --d -1 --h 0.5", 1, error()),
    "growth-threshold": Row("growth-threshold --d 2 --h 0.1 --L 5.0"),
    "growth-threshold-d-0": Row(
        "growth-threshold --d 0 --h 0.5 --L 0.5", 1, error()),
    "growth-threshold-d-neg": Row(
        "growth-threshold --d -2 --h 0.5 --L 0.5", 1, error()),
    "growth-threshold-L-inf": Row(
        "growth-threshold --d 2 --h 0.1 --L inf", 1, error("--L .*")),
    "growth-threshold-L-nan": Row(
        "growth-threshold --d 2 --h sqrt2/2 --L nan", 1, error("--L .*")),
    "growth-threshold-L-neg": Row(
        "growth-threshold --d 2 --h 0.1 --L -1", 1, error("--L .*")),
    # landscape
    "landscape-3x3": Row(
        "landscape --dims 3,3 --h sqrt2/2 --partition compounds --out-dir out",
        files={"states.csv": 2 ** 9, "partition.csv": 2 ** 9 - 1,
               "blocks.csv": 408},
        check=export_bytes(
            "2788193bc6e0a5a0abefd37c609eff47d3c37d1ce5e5ff8c2c76b12a3fb3937b",
            "36cbc6544ec6f24e1f3e6236163d1adef578280f4946fda4c8bc801ff1b0394f",
            "cf90d2d80c0cc47160da0e1b72ddf1f008ddd3a6f98f2653ba24449117a97081")),
    # under a rational field levels hold several pairs, so compounds join
    # cycles whose exit pairs differ
    "landscape-3x3-rational": Row(
        "landscape --dims 3,3 --h 0.5 --bc n_pm_1 --out-dir out",
        files={"states.csv": 2 ** 9, "partition.csv": 2 ** 9 - 1,
               "blocks.csv": 487},
        check=export_bytes(
            "899b53f291c211ac7c9dd70d8ab85e0a447af23edc112220a4d468d235b0402f",
            "c4beb55fba818772829c6fe3289912c8d4ddc5fa98a6e1a651d83a1a91678add",
            "13eb6905739c7fdfdc1455740efe6f02ff42640fb259db534c393802fe34614b")),
    "landscape-4x4-cycles": Row(
        "landscape --dims 4,4 --h sqrt2/2 --partition cycles --out-dir out",
        timeout=120, files={"states.csv": 2 ** 16,
                            "partition.csv": 2 ** 16 - 1,
                            "blocks.csv": 65246},
        check=export_bytes(
            "d358b026cf7d3f1d8e40c4aa22b63dd265fb603a4d180dca822650d4d57ced68",
            "3f1b9d7a811549776c48bcd9307436c9dd90767bf7a0a51cfc721ba8af5fbf3b",
            "aa869c5847e87a63433fd1fa166443514552612cfc2949b9848117755ccb9ccf")),
    # the columnar partition peaks near 520 MB; a list of a million built
    # blocks would pass 1000 MB
    "landscape-4x5-cycles": Row(
        f"{BOX_4X5} cycles", timeout=300, peak_mb=800,
        files={**STATES_4X5, "blocks.csv": 1048130},
        check=export_bytes(
            STATES_4X5_SHA256,
            "6b4e6f7de9070bebb8f19c7a596676ce3653df681f2417e486898f22f0572954",
            "9cd3d2c23c54f71ddbf31c86ec2fa7f4afb0b4683ae8ecb72e9600c1149f02c5")),
    # compounds as components of the tie graph peak near 520 MB; a merge
    # over one dict per cycle would pass 2000 MB
    "landscape-4x5-compounds": Row(
        f"{BOX_4X5} compounds", timeout=300, peak_mb=800,
        files={**STATES_4X5, "blocks.csv": 1047876},
        check=export_bytes(
            STATES_4X5_SHA256,
            "e92c6decb7e3c5d2729124054332cb6a2c4ca0fdceb4a829fab537595e070baa",
            "c2ee26dfbabe1b07c63a6222b0f0b9317142f51d75eb7f8a89d2d540f750a2a4")),
    "landscape-no-dims": Row("landscape --h sqrt2/2", 2, USAGE),
    "landscape-5x5": Row("landscape --dims 5,5 --h sqrt2/2", 1,
                         error("box has 25 sites, .*")),
    "landscape-unread-flags": Row(
        "landscape --dims 2,2 --h sqrt2/2 --config missing.json --seed 4 "
        "--caps-events 0", 2, USAGE),
    # wgraph-check
    "wgraph-check": Row("wgraph-check --count 50 --seed 0",
                        check=lambda out: out["stdout"]["pass"] is True),
    "wgraph-check-count-0": Row(
        "wgraph-check --count 0", 1, error("--count .*"),
        no_run=("isingkit.cli.random_rate_matrix",)),
    "wgraph-check-count-neg": Row(
        "wgraph-check --count -5", 1, error("--count .*"),
        no_run=("isingkit.cli.random_rate_matrix",)),
    "wgraph-check-max-states-1": Row(
        "wgraph-check --max-states 1", 1, error("--max-states .*"),
        no_run=("isingkit.cli.random_rate_matrix",)),
    # simulate
    "simulate-graphical-64x64": Row(
        "simulate --mode graphical --dims 64,64 --h sqrt2/2 --beta 1.5 "
        "--caps-time 2 --seed 0 --out-dir out",
        files={"trajectory.csv": None, "summary.json": None},
        # named "time_cap", as the rejection-free sampler names it
        check=lambda out: out["summary.json"]["stop_reason"] == "time_cap"),
    "simulate-caps-events-0": Row(
        "simulate --dims 3 --h 0.5 --beta 2.0 --caps-events 0 --out-dir out",
        1, error()),
    "simulate-caps-time-0": Row(
        "simulate --dims 3 --h 0.5 --beta 2.0 --caps-time 0 --out-dir out",
        1, CAPS_TIME_ZERO),
    "simulate-graphical-caps-time-0": Row(
        "simulate --dims 3 --h 0.5 --beta 2.0 --mode graphical --caps-time 0 "
        "--out-dir out", 1, CAPS_TIME_ZERO),
    "simulate-graphical-caps-time-inf": Row(
        "simulate --mode graphical --dims 3 --h 0.5 --beta 2 --caps-time inf",
        1, error("caps time .*")),
    "simulate-beta-neg": Row(
        "simulate --dims 3 --h 0.5 --beta=-1 --caps-events 5 --out-dir out",
        1, error()),
    "simulate-beta-0": Row(
        "simulate --dims 3 --h 0.5 --beta=0 --caps-events 5 --out-dir out",
        1, error()),
    "simulate-beta-inf": Row(
        "simulate --dims 3 --h 0.5 --beta inf --caps-events 3", 1,
        error(r"beta values .*\[inf\]")),
    "simulate-seed-neg": Row(
        "simulate --dims 3 --h 0.5 --beta 2.0 --seed -1 --out-dir out", 1,
        error(re.escape("seed must be an integer >= 0, got -1"))),
    "simulate-unread-flags": Row(
        "simulate --beta 1,5 --replicas 9 --config missing.json", 2, USAGE),
    "simulate-no-beta": Row("simulate --dims 3 --h 0.5", 2, USAGE),
    # nucleation
    "nucleation": Row(
        "nucleation --dims 3 --beta 3,4 --replicas 5 --seed 0 --out-dir out",
        one_cpu=True, files={"results.csv": 2 * 5, "fit.json": None},
        check=lambda out: "events" in out["results.csv"][0]),
    "nucleation-one-replica": Row(
        "nucleation --dims 3 --beta 3,4 --replicas 1 --seed 0",
        check=lambda out: out["stdout"]["fits"] == {
            "nucleation": FIT_ERROR, "all_plus": FIT_ERROR}),
    "nucleation-caps-time-0": Row(
        "nucleation --dims 3 --beta 3,4 --caps-time 0", 1, CAPS_TIME_ZERO),
    "nucleation-beta-inf": Row(
        "nucleation --dims 3 --beta 3,inf --replicas 2", 1,
        error(r"beta values .*\[3\.0, inf\]")),
    "nucleation-beta-repeated": Row(
        "nucleation --dims 3 --beta 1.0,1.0 --replicas 1 --out-dir out", 1,
        error(".*distinct.*")),
    "nucleation-beta-repeated-2.0": Row(
        "nucleation --dims 3 --beta 2,1,2.0 --replicas 1 --out-dir out", 1,
        error(".*distinct.*")),
    # replica r of a graphical run reads the event stream of seed + r, whose
    # key is 64 bits: the top seed is checked before any replica runs, and
    # it may be 2^64 - 1
    "nucleation-graphical-seed-past-2^64": Row(
        "nucleation --mode graphical --seed 18446744073709551605 "
        "--replicas 12 --dims 4,4 --h sqrt2/2 --beta 1.5,2.0", 1,
        error(r".*--seed.*--replicas.*"), no_run=RUNS),
    "nucleation-graphical-top-seed": Row(
        "nucleation --mode graphical --seed 18446744073709551614 "
        "--replicas 2 --dims 3 --beta 3,4"),
    "nucleation-bc-bogus": Row(
        "nucleation --bc bogus --dims 3 --replicas 1 --out-dir out", 1,
        error()),
    "nucleation-config-replicas-0": Row(
        "nucleation --config c.json --out-dir out", 1, error(),
        config(replicas=0)),
    **{f"nucleation-config-null-{key}": Row(
        "nucleation --config c.json", 1, error(),
        config(**{"dims": [3], "beta": [1.0, 2.0], "replicas": 1,
                  key: None}))
       for key in ("replicas", "dims", "beta", "seed")},
    **{f"nucleation-config-{name}": Row(
        f"{NUCLEATION_CONFIG} --out-dir out", 1, error(".*JSON object.*"),
        text) for name, text in (("list", "[1]"), ("number", "3"),
                                 ("string", '"dims"'), ("null", "null"))},
    "nucleation-config-caps-events-null": Row(
        NUCLEATION_CONFIG, 1, error(), config(caps={"events": None})),
    # a growth-model field is no key of a nucleation config
    "nucleation-config-gamma": Row(
        "nucleation --config c.json", 1,
        error(re.escape("unknown config keys: ['gamma']")), config(gamma=2),
        no_run=RUNS),
    "nucleation-config-caps-5": Row(
        f"{NUCLEATION_CONFIG} --caps-events 3", 1, error(), config(caps=5)),
    "nucleation-config-caps-list": Row(
        f"{NUCLEATION_CONFIG} --out-dir out", 1,
        error("caps must be an object.*"), config(caps=[5])),
    "nucleation-config-caps-list-caps-time": Row(
        f"{NUCLEATION_CONFIG} --caps-time 2 --out-dir out", 1,
        error("caps must be an object.*"), config(caps=[5])),
    **{f"nucleation-config-{name}": Row(
        f"{NUCLEATION_CONFIG} --caps-events 3 --out-dir out", 1,
        error(f".*{spelt}.*"), config(**data))
       for name, data, spelt in (
           ("caps_events", {"caps_events": 5}, "caps.events"),
           ("caps_time", {"caps_time": 2.0}, "caps.time"),
           ("caps_events-and-caps", {"caps_events": 5, "caps": {"events": 3}},
            "caps.events"),
           ("caps_time-and-caps", {"caps_time": 2.0, "caps": {"time": 1.0}},
            "caps.time"))},
    # infection
    "infection": Row(
        "infection --dims 8 --h 0.5 --beta 2,3 --block-side 4 --replicas 3 "
        "--seed 0 --out-dir out", one_cpu=True,
        files={"results.csv": 2 * 3, "summary.json": None},
        check=lambda out: {"stop_reason", "events"}
        <= set(out["results.csv"][0])
        and min(int(r["events"]) for r in out["results.csv"]) >= 1),
    "infection-beta-inf": Row(
        "infection --dims 8 --h 0.5 --beta inf --block-side 4 --replicas 2",
        1, error(r"beta values .*\[inf\]")),
    "infection-block-side-0": Row(
        "infection --dims 8 --h 0.5 --beta 2,3 --block-side 0 --replicas 2 "
        "--out-dir out", 1, error()),
    "infection-block-side-neg": Row(
        "infection --dims 8 --h 0.5 --beta 2,3 --block-side -4 --replicas 2 "
        "--out-dir out", 1, error()),
    # summary.json's persistence keys are betas, which sort as numbers, so
    # "3.0" comes before "10.0": stdout is the file, not a re-sorted copy
    "infection-beta-3-10": Row(
        "infection --dims 4 --h 0.5 --beta 3,10 --replicas 2 --block-side 2 "
        "--caps-events 2000 --seed 3 --out-dir out",
        files={"results.csv": 2 * 2, "summary.json": None},
        check=lambda out: list(out["summary.json"]["persistence"])
        == ["3.0", "10.0"]),
    "infection-config-rejection_free": Row(
        "infection --config c.json",
        config=config(mode="rejection_free", dims=[8], block_side=4,
                      beta=[2], replicas=2)),
    # stc-audit
    "stc-audit": Row(
        "stc-audit --dims 6,6 --h sqrt2/2 --beta 2 --replicas 5 --seed 0 "
        "--out-dir out", one_cpu=True,
        files={"distribution.csv": 5, "summary.json": None},
        check=lambda out: {"beta", "stop_reason", "events"}
        <= set(out["distribution.csv"][0])),
    "stc-audit-beta-inf": Row(
        "stc-audit --dims 4,4 --h sqrt2/2 --beta inf --replicas 2", 1,
        error(r"beta values .*\[inf\]")),
    # a list is refused, not cut to its first beta, and a run given no beta
    # is told to give one, not shown the default
    "stc-audit-several-betas": Row(
        "stc-audit --dims 4,4 --h sqrt2/2 --beta 2,5,9 --replicas 2 "
        "--out-dir out", 1, error(r".*\[2\.0, 5\.0, 9\.0\].*")),
    "stc-audit-no-beta": Row(
        "stc-audit --dims 4,4 --h sqrt2/2 --replicas 2 --out-dir out", 1,
        error(".*--beta.*")),
    "stc-audit-config-no-beta": Row(
        "stc-audit --dims 3 --h sqrt2/2 --replicas 2 --config c.json "
        "--out-dir out", 1, error(".*--beta.*"), config(seed=3)),
    "stc-audit-config-beta": Row(
        "stc-audit --dims 3 --h sqrt2/2 --replicas 2 --config c.json "
        "--out-dir out", config=config(seed=3, beta=[2.0]),
        files={"distribution.csv": 2, "summary.json": None},
        check=lambda out: out["summary.json"]["beta"] == 2.0),
    "stc-audit-threshold-neg": Row(
        "stc-audit --dims 4,4 --h sqrt2/2 --beta 3 --stc-threshold-D -3 "
        "--replicas 2 --out-dir out", 1, error()),
    "stc-audit-config-rejection_free": Row(
        "stc-audit --config c.json",
        config=config(mode="rejection_free", dims=[8], block_side=4,
                      beta=[2], replicas=2)),
    # a config for another experiment, or a mode other than rejection_free
    # for infection and stc-audit, is refused before anything runs
    **{f"{command}-config-{other}": Row(
        f"{command} --config c.json --out-dir out", 1,
        error(f"config file c.json is for experiment '{other}', not "
              f"'{command.replace('-', '_')}'"),
        config(experiment=other, dims=[8], block_side=4, beta=[2],
               replicas=2), no_run=RUNS)
       for command, other in (("nucleation", "infection"),
                              ("infection", "stc_audit"),
                              ("stc-audit", "nucleation"))},
    **{f"{command}-config-graphical": Row(
        f"{command} --config c.json --out-dir out", 1,
        error(re.escape(f"{command.replace('-', '_')} does not read "
                        f"['mode']: each must keep its default")),
        config(mode="graphical", dims=[8], block_side=4, beta=[2],
               replicas=2), no_run=RUNS)
       for command in ("infection", "stc-audit")},
    # a key the run does not read is refused unless it holds the default
    **{f"{command}-config-{key}": Row(
        f"{command} --config c.json --out-dir out", 1,
        error(re.escape(f"{command.replace('-', '_')} does not read "
                        f"['{key}']: each must keep its default")),
        config(dims=[8], beta=[2], replicas=2, **{key: value}), no_run=RUNS)
       for command, key, value in (("nucleation", "block_side", 5),
                                   ("infection", "stc_threshold_D", 3),
                                   ("stc-audit", "eligibility_defect", 0))},
    "nucleation-config-experiment-bogus": Row(
        "nucleation --config c.json --out-dir out", 1,
        error(re.escape("config file c.json is for experiment 'bogus', not "
                        "'nucleation'")),
        config(experiment="bogus", dims=[8], beta=[2], replicas=2),
        no_run=RUNS),
    # growth-model
    "growth-model": Row(
        "growth-model --d 2 --gamma 2 --kappa-prev 0.5 --L 0.7 --beta 4,6 "
        "--replicas 3 --seed 0 --out-dir out", one_cpu=True,
        files={"results.csv": 2 * 3, "fit.json": None}),
    "growth-model-replicas-0": Row(growth(replicas=0), 1, error()),
    "growth-model-d-0": Row(growth(d=0), 1, error()),
    "growth-model-seed-neg": Row(growth(seed=-1), 1, error()),
    "growth-model-beta-0": Row(growth(beta="0,4"), 1, error()),
    "growth-model-beta-inf": Row(growth(beta="2,inf"), 1,
                                 error(r"beta values .*\[2\.0, inf\]")),
    "growth-model-beta-repeated": Row(
        growth(beta="4,6,4", replicas=1), 1, error(".*distinct.*")),
    "growth-model-gamma-nan": Row(growth(gamma="nan"), 1, error()),
    "growth-model-L-nan": Row(growth(L="nan"), 1, error()),
    "growth-model-L-1e6": Row(growth(L="1e6"), 1, error()),
    "growth-model-kappa-prev-nan": Row(growth(kappa_prev="nan"), 1, error()),
    # a window of e^100 sites: the bound names L before numpy's array limit
    # is reached
    "growth-model-L-100": Row(
        growth(gamma=400, L=100, beta="1,2", replicas=1), 1,
        error("L out of range.*")),
    # isoperimetry, at and past the oracle's caps
    "isoperimetry-d2": Row(
        "isoperimetry --d 2 --vmax 12 --out-dir out",
        files={"isoperimetry.csv": 12},
        # a 3x4 rectangle
        check=lambda out: last_row(out["isoperimetry.csv"]) == ["12", "14"]),
    "isoperimetry-d3": Row(
        "isoperimetry --d 3 --vmax 8 --out-dir out",
        files={"isoperimetry.csv": 8},
        # the 2x2x2 cube
        check=lambda out: last_row(out["isoperimetry.csv"]) == ["8", "24"]),
    **{f"isoperimetry-d{d}-vmax-{vmax}": Row(
        f"isoperimetry --d {d} --vmax {vmax} --out-dir out", 1, error(),
        no_run=("isingkit.isoperimetry._grow_tables",))
       for d, vmax in ((2, 13), (3, 9), (2, 0), (4, 2))},
    "frobnicate": Row("frobnicate", 2, USAGE),
}

# this tree's isingkit, for the fresh interpreters
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [os.path.dirname(os.path.dirname(isingkit.__file__)),
     *filter(None, [os.environ.get("PYTHONPATH")])])}
# ``python -m isingkit.cli``, ended by its own alarm and, where {pin} says
# so, pinned to one CPU first
CHILD = ("import os, runpy, signal; signal.alarm({timeout}); {pin}"
         "runpy.run_module('isingkit.cli', run_name='__main__')")


def child(argv, timeout, cwd=".", cpu=None):
    """Exit code, stdout, stderr and peak RSS in MB of one console run in a
    fresh interpreter."""
    pin = "" if cpu is None else f"os.sched_setaffinity(0, {{{cpu}}}); "
    code = CHILD.format(timeout=timeout, pin=pin)
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen([sys.executable, "-c", code, *argv.split()],
                                cwd=cwd, stdout=out, stderr=err, env=ENV)
        # this child's own peak: RUSAGE_CHILDREN would give the largest peak
        # of every child this process has reaped
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        # ru_maxrss is in KiB on Linux
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024


def in_process(argv, timeout):
    """The exit code of ``cli.main``, which argparse gives by SystemExit."""
    def expire(signum, frame):
        # pytest's failure is a BaseException: ``cli.main`` turns an OSError,
        # TimeoutError among them, into an error line and exit code 1
        pytest.fail(f"{argv} ran past {timeout} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(timeout)
    try:
        return cli.main(argv.split())
    except SystemExit as exc:
        return exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def refuse(name):
    def ran(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return ran


def reject(constant):
    raise ValueError(f"{constant} in the output")


class Outputs(dict):
    """Stdout's object, and each file of ``out`` parsed on first use: a
    CSV as its rows, a JSON file as its object."""

    def __init__(self, out_dir, printed):
        super().__init__(stdout=printed)
        self.out_dir = out_dir

    def __missing__(self, name):
        with open(self.out_dir / name, newline="") as fh:
            self[name] = json.load(fh, parse_constant=reject) \
                if name.endswith(".json") else list(csv.DictReader(fh))
        return self[name]


@pytest.mark.parametrize("row", [
    pytest.param(row, id=name,
                 marks=[] if row.peak_mb is None else [pytest.mark.slow])
    for name, row in ROWS.items()])
def test_row(row, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    left = []
    if row.config is not None:
        (tmp_path / "c.json").write_text(row.config)
        left.append("c.json")
    if row.peak_mb is not None:
        code, out, err, peak_mb = child(row.argv, row.timeout)
        assert peak_mb <= row.peak_mb
    else:
        for name in row.no_run:
            monkeypatch.setattr(name, refuse(name))
        code = in_process(row.argv, row.timeout)
        out, err = capsys.readouterr()
    assert code == row.code
    assert re.fullmatch(row.err, err), err
    printed = None
    out_dir = tmp_path / "out"
    json_files = [name for name in row.files or () if name.endswith(".json")]
    if err:
        assert out == ""
    else:
        printed = json.loads(out, parse_constant=reject)
        assert isinstance(printed, dict)
        if json_files:
            # the file as written, byte for byte
            [name] = json_files
            assert out.encode() == (out_dir / name).read_bytes() + b"\n"
        else:
            # indented, keys sorted, like every JSON file
            assert out == json.dumps(printed, indent=2, sort_keys=True) + "\n"
    if row.files is not None:
        left.append("out")
        assert sorted(os.listdir(out_dir)) == sorted(row.files)
    # nothing else, no temp file either
    assert sorted(os.listdir(tmp_path)) == sorted(left)
    outputs = Outputs(out_dir, printed)
    for name, count in (row.files or {}).items():
        if name.endswith(".json"):
            assert outputs[name] == printed
        elif count is not None:
            with open(out_dir / name, newline="") as fh:
                assert sum(1 for _ in csv.reader(fh)) - 1 == count
    assert row.check is None or row.check(outputs)
    if row.one_cpu:
        one = tmp_path / "one"
        one.mkdir()
        cpu = min(os.sched_getaffinity(0))
        assert child(row.argv, row.timeout, one, cpu)[:3] == (code, out, err)
        for name in row.files:
            assert (one / "out" / name).read_bytes() == \
                (out_dir / name).read_bytes(), f"{name} depends on the CPUs"


# every subcommand's options, in the order of its usage line, and the
# top-level ones under "": a flag added or dropped fails the test below
CLI_OPTIONS = {
    "": "-h --help --version",
    "constants": "--d --h",
    "landscape": "--dims --bc --h --out-dir --partition",
    "wgraph-check": "--count --max-states --seed",
    "simulate": "--dims --bc --h --out-dir --seed --caps-events --caps-time "
                "--beta --mode --stop",
    "nucleation": "--dims --bc --h --out-dir --config --beta --replicas "
                  "--seed --caps-events --caps-time --mode",
    "infection": "--dims --bc --h --out-dir --config --beta --replicas "
                 "--seed --caps-events --caps-time --block-side "
                 "--eligibility-defect",
    "growth-model": "--d --gamma --kappa-prev --L --beta --replicas --seed "
                    "--out-dir",
    "isoperimetry": "--d --vmax --out-dir",
    "stc-audit": "--dims --bc --h --out-dir --config --beta --replicas "
                 "--seed --caps-events --caps-time --stc-threshold-D",
    "growth-threshold": "--d --h --L",
}


def test_cli_options_are_pinned():
    def options(parser, skip=("-h", "--help")):
        return " ".join(s for a in parser._actions for s in a.option_strings
                        if s not in skip)

    parser = cli.build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    got = {"": options(parser, ()),
           **{name: options(p) for name, p in sub.choices.items()}}
    assert got == CLI_OPTIONS


def pyproject(pattern):
    """The first group of ``pattern`` in pyproject.toml, read without
    ``tomllib``, which Python 3.10 lacks."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "pyproject.toml")
    with open(path) as fh:
        return re.search(pattern, fh.read(), re.MULTILINE).group(1)


def test_version_matches_pyproject():
    want = pyproject(r'^version\s*=\s*"([^"]+)"')
    assert isingkit.__version__ == want
    assert child("--version", 30)[:3] == (0, f"isingkit {want}\n", "")


def test_console_script_is_cli_main():
    module, name = pyproject(
        r'^\[project\.scripts\]\s+isingkit\s*=\s*"([^"]+)"').split(":")
    assert getattr(importlib.import_module(module), name) is cli.main
