"""The four workloads, by name, in the order they are reported."""

from perfbench.workloads.codec import CodecWorkload
from perfbench.workloads.fleet_scale import FleetScaleWorkload
from perfbench.workloads.kfac_train import KfacTrainWorkload

__all__ = ["WORKLOADS"]

WORKLOADS = {
    w.name: w
    for w in (
        CodecWorkload("codec_dense"),
        CodecWorkload("codec_sparse"),
        KfacTrainWorkload(),
        FleetScaleWorkload(),
    )
}
