"""Workload definitions and the library set-up they run.

Each workload is a config in the schema of ``configs/*.json``. The set-up
below builds mesh, spaces, problem, family and encoder through the public
functions of the ``richop`` modules and then calls
``pipeline.build_operator``; it is the library part of ``richop build``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from richop import coeff, encoder, fem, mesh, pipeline

# configs/square_smoke.json, pinned here so that an edit to the committed
# config does not silently change the workload.
_SMOKE = {
    "domain": {"kind": "square"},
    "mesh": {"h": 0.0884, "degree": 1},
    "problem": {"alpha": 1.0, "beta": 0.5, "source": {"kind": "constant", "value": 1.0},
                "normalize_source": True},
    "family": {"kind": "analytic", "n_modes": 4, "decay": 0.7, "fill": 0.9},
    "encoder": {"kind": "nodal", "h": 0.3, "degree": 1},
    "reduction": {"training_count": 30, "n_basis": 8, "gamma": 1.0},
    "network": {"epsilon": 0.01, "beta_mode": "paper"},
}


def _variant(**sections) -> dict:
    cfg = copy.deepcopy(_SMOKE)
    for name, updates in sections.items():
        cfg[name] = {**cfg[name], **updates}
    return cfg


# Why each workload exists (also in BENCHMARK.json):
# smoke: the envelope dominates set-up and the network dominates evaluation;
#        225 free dofs, so fem runs its dense Cholesky path.
# gll:   the same problem through the GLL encoder (M=241 against M=36), so a
#        change to one encoder path that costs the other shows.
# fine:  3,136 free dofs (the PCG side of the solve_spd switch); fem,
#        richardson and reduced_basis do most of the work.
WORKLOADS = {
    "smoke": _SMOKE,
    "gll": _variant(encoder={"kind": "gll", "h": 0.5, "p": 2},
                    reduction={"training_count": 20}),
    "fine": _variant(mesh={"h": 0.025}, reduction={"training_count": 40, "n_basis": 12}),
}


@dataclass
class Problem:
    """Everything the set-up builds before and including the operator."""

    space: fem.FemSpace
    config: fem.ProblemConfig
    family: coeff.DataFamily
    op: pipeline.NeuralOperator


def _family(cfg: dict, config: fem.ProblemConfig, domain) -> coeff.DataFamily:
    section = cfg["family"]
    return coeff.analytic_family(config.alpha, config.beta, domain,
                                 n_modes=section["n_modes"], decay=section["decay"],
                                 fill=section["fill"])


def _encoder(cfg: dict, domain) -> encoder.Encoder:
    section = cfg["encoder"]
    coarse = mesh.triangulate(domain, section["h"])
    if section["kind"] == "nodal":
        return encoder.build_nodal_encoder(fem.build_space(coarse, section["degree"]))
    return encoder.build_gll_encoder(mesh.quad_split(coarse), section["p"])


def setup(cfg: dict, seed: int) -> Problem:
    """Build the certified operator of a workload from scratch."""
    domain = mesh.unit_square()
    space = fem.build_space(mesh.triangulate(domain, cfg["mesh"]["h"]), cfg["mesh"]["degree"])
    prob = cfg["problem"]
    config = fem.ProblemConfig(prob["alpha"], prob["beta"], coeff.constant(1.0),
                               coeff.constant(prob["source"]["value"]))
    config = fem.normalize_source(space, config)
    family = _family(cfg, config, domain)
    red, net = cfg["reduction"], cfg["network"]
    op = pipeline.build_operator(family, config, space, red["training_count"], red["n_basis"],
                                 _encoder(cfg, domain), net["epsilon"], seed,
                                 gamma=red["gamma"], beta_mode=net["beta_mode"])
    return Problem(space, config, family, op)
