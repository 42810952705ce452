"""The benchmark's workloads, generated from one workload seed.

A workload is an ordered list of keyword dicts for ``norbrack.cli.SuiteConfig``.
One pass of a workload runs ``run_suite`` once per config, in order.  Every
random input (Fourier-curve seeds, ``SuiteConfig.seed``, hence the one-form
and variation draws) is derived from the workload seed, so the same seed
always gives the same inputs.  This module is stdlib only: the parent process
builds the configs without importing numpy or the package under test.
"""

from __future__ import annotations

import hashlib

WORKLOADS = ("span", "flow", "calc", "oneform")

# A second workload seed, kept out of tuning, for confirming later claims.
CONFIRM_SEED = 7919

# Fourier-curve shape used everywhere: 6 modes with k**-3 coefficient decay.
_FOURIER_SHAPE = "6,3.0"

_PLANE_ANALYTIC = (("circle", "circle"), ("ellipse", "ellipse:1.5,0.7"))
_SPHERE = (("great", "circle"), ("latitude", "circle:0.6"))


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one named input, stable across Python versions."""
    digest = hashlib.sha256(f"norbrack-bench/{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _fourier(seed: int, label: str) -> str:
    return f"fourier:{derive_seed(seed, label)},{_FOURIER_SHAPE}"


def _span(seed: int, tiny: bool) -> list[dict]:
    big, small = (16, 16) if tiny else (128, 64)
    # the ellipse at K = n/2 - 1 is acceptance criterion 2's setting: its
    # trig basis has n - 1 functions, so the rank falls short by one
    return [
        {"suite": "spanning", "grid_n": big, "modes": big // 2, "family": _fourier(seed, f"span/fourier/{big}")},
        {"suite": "spanning", "grid_n": small, "modes": small // 2, "family": "circle"},
        {"suite": "spanning", "grid_n": small, "modes": small // 2 - 1, "family": "ellipse:1.5,0.7"},
    ]


def _flow(seed: int, tiny: bool) -> list[dict]:
    out = []
    for n in (16, 32) if tiny else (256, 512):
        families = [fam for _, fam in _PLANE_ANALYTIC]
        families += [_fourier(seed, f"flow/fourier{i}/{n}") for i in (1, 2)]
        out += [{"suite": "arc", "grid_n": n, "family": fam} for fam in families]
    return out


def _calc(seed: int, tiny: bool) -> list[dict]:
    out = []
    for suite in ("bracket", "torsion", "variation"):
        for n in (16, 32) if tiny else (256, 512):
            curves = [(label, fam, "plane") for label, fam in _PLANE_ANALYTIC]
            curves.append(("fourier", _fourier(seed, f"calc/{suite}/fourier/{n}"), "plane"))
            curves += [(label, fam, "sphere") for label, fam in _SPHERE]
            for label, fam, ambient in curves:
                out.append(
                    {
                        "suite": suite,
                        "grid_n": n,
                        "family": fam,
                        "ambient": ambient,
                        "seed": derive_seed(seed, f"calc/{suite}/{label}/{n}"),
                    }
                )
    return out


def _oneform(seed: int, tiny: bool) -> list[dict]:
    grids, cases = ((16, 32), 5) if tiny else ((256, 512, 1024), 200)
    return [
        {"suite": "oneform", "grid_n": n, "cases": cases, "seed": derive_seed(seed, f"oneform/{n}")}
        for n in grids
    ]


_BUILDERS = {"span": _span, "flow": _flow, "calc": _calc, "oneform": _oneform}


def configs(name: str, seed: int, tiny: bool = False) -> list[dict]:
    """The SuiteConfig fields of every suite run in one pass of a workload.

    ``tiny`` shrinks every grid to 16 or 32 nodes for the smoke tests.
    """
    return _BUILDERS[name](seed, tiny)
