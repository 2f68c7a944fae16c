"""Deployment modes.

Figure 4/5 of the paper compare five end-to-end deployments, reproduced by
:class:`DeploymentMode`.  Each runs the whole network on one tier, edge or
cloud, priced by :class:`~repro.cluster.costmodel.CostModel`.  Figure 1's NN
deployment service can also split the network between the tiers; that split
is not modelled, because it never beats the better single tier (see the
README).
"""

from __future__ import annotations

import enum


class DeploymentMode(enum.Enum):
    """The five end-to-end baselines of Section V-B."""

    #: I-frame seeking on the edge, NN inference in the cloud (3-tier SiEVE).
    IFRAME_EDGE_CLOUD_NN = "iframe_edge_cloud_nn"
    #: Full video shipped to the cloud; seeking and NN both in the cloud.
    IFRAME_CLOUD_CLOUD_NN = "iframe_cloud_cloud_nn"
    #: I-frame seeking and NN inference both on the edge.
    IFRAME_EDGE_EDGE_NN = "iframe_edge_edge_nn"
    #: Uniform sampling on the edge (default encoding), NN in the cloud.
    UNIFORM_EDGE_CLOUD_NN = "uniform_edge_cloud_nn"
    #: MSE filtering on the edge (default encoding), NN in the cloud.
    MSE_EDGE_CLOUD_NN = "mse_edge_cloud_nn"

    @property
    def uses_semantic_encoding(self) -> bool:
        """Whether the mode operates on the semantically encoded video."""
        return self in (DeploymentMode.IFRAME_EDGE_CLOUD_NN,
                        DeploymentMode.IFRAME_CLOUD_CLOUD_NN,
                        DeploymentMode.IFRAME_EDGE_EDGE_NN)

    @property
    def label(self) -> str:
        """The legend label used in Figure 4/5."""
        return {
            DeploymentMode.IFRAME_EDGE_CLOUD_NN: "I-frame edge + Cloud NN",
            DeploymentMode.IFRAME_CLOUD_CLOUD_NN: "I-frame Cloud + Cloud NN",
            DeploymentMode.IFRAME_EDGE_EDGE_NN: "I-frame edge + edge NN",
            DeploymentMode.UNIFORM_EDGE_CLOUD_NN: "Uniform Sampling edge + Cloud NN",
            DeploymentMode.MSE_EDGE_CLOUD_NN: "MSE Edge + Cloud NN",
        }[self]


#: All modes in the order the paper's figures list them.
ALL_DEPLOYMENT_MODES = (
    DeploymentMode.IFRAME_EDGE_CLOUD_NN,
    DeploymentMode.IFRAME_CLOUD_CLOUD_NN,
    DeploymentMode.IFRAME_EDGE_EDGE_NN,
    DeploymentMode.UNIFORM_EDGE_CLOUD_NN,
    DeploymentMode.MSE_EDGE_CLOUD_NN,
)
