"""Serialization of fitted objects to tagged text documents.

Documents are versioned; readers reject unknown types.  Arrays with more
than two axes are stored flattened to matrices next to the integers
needed to reshape them.
"""

import json

import numpy as np

from .dimred import FPCABasis, SpatialPCA
from .errors import DimensionMismatch, KindMismatch
from .flatten import VELOCITY_KINDS
from .io import read_doc, write_doc
from .models import EMULATOR_KINDS, EmulatorBundle, IGModel, MVGModel, PWIModel, VARModel

BUNDLE_DOC = "emulator-bundle"
REDUCTION_DOC = "reduction"
VERSION = 1


def _check_sizes(doc, names, ok, what):
    """Refuse entries that disagree with what they size or describe, naming them."""
    if not ok:
        given = ", ".join(f"{name!r} = {doc[name]}" for name in names)
        raise DimensionMismatch(f"{doc.path}: entry {given} does not match {what}")


def _spatial_items(prefix, pca: SpatialPCA):
    return [(f"{prefix}.mean", pca.mean),
            (f"{prefix}.basis", pca.basis),
            (f"{prefix}.eigenvalues", pca.eigenvalues),
            (f"{prefix}.total_variance", float(pca.total_variance))]


def _spatial_from(doc, prefix):
    return SpatialPCA(mean=doc.entry(f"{prefix}.mean", "v"),
                      basis=doc.entry(f"{prefix}.basis", "m"),
                      eigenvalues=doc.entry(f"{prefix}.eigenvalues", "v"),
                      total_variance=doc.entry(f"{prefix}.total_variance", "f"))


def _fpca_items(prefix, basis: FPCABasis):
    d1, d2 = basis.dims
    items = [(f"{prefix}.means", basis.means),
             (f"{prefix}.eigenvalues", basis.eigenvalues),
             (f"{prefix}.dt", float(basis.dt)),
             (f"{prefix}.rows", d1)]
    for i in range(d1):
        items.append((f"{prefix}.basis.{i}", basis.bases[i]))
    return items


def _fpca_from(doc, prefix):
    d1, means = doc.entry(f"{prefix}.rows", "i"), doc.entry(f"{prefix}.means", "m")
    _check_sizes(doc, [f"{prefix}.rows"], means.shape[0] == d1, f"'{prefix}.means' {means.shape}")
    bases = np.stack([doc.entry(f"{prefix}.basis.{i}", "m") for i in range(d1)])
    return FPCABasis(means=means, bases=bases,
                     eigenvalues=doc.entry(f"{prefix}.eigenvalues", "m"),
                     dt=doc.entry(f"{prefix}.dt", "f"))


def _model_items(model):
    if isinstance(model, MVGModel):
        return [("model.family", "mvg"), ("model.covariance", model.covariance),
                ("model.jitter", model.jitter),
                ("model.rows", model.shape[0]), ("model.cols", model.shape[1])]
    if isinstance(model, IGModel):
        return [("model.family", "ig"), ("model.variances", model.variances),
                ("model.jitter", model.jitter),
                ("model.rows", model.shape[0]), ("model.cols", model.shape[1])]
    if isinstance(model, VARModel):
        items = [("model.family", "var"), ("model.order", model.order),
                 ("model.intercept", model.intercept), ("model.noise_cov", model.noise_cov)]
        for i in range(model.order):
            items.append((f"model.coef.{i}", model.coef[i]))
        return items
    if isinstance(model, PWIModel):
        t, k, _ = model.means.shape
        d = model.covariances.shape[1]
        return [("model.family", "pwi"), ("model.frames", t), ("model.bones", k),
                ("model.diagonal", int(model.diagonal)),
                ("model.means", model.means.reshape(t * k, 3)),
                ("model.covariances", model.covariances.reshape(t * d, d))]
    raise KindMismatch(f"cannot serialize model {type(model).__name__}")


def _model_from(doc):
    family = doc.entry("model.family", "s")
    if family in ("mvg", "ig"):
        shape = (doc.entry("model.rows", "i"), doc.entry("model.cols", "i"))
        jitter = doc.entry("model.jitter", "f")
    if family == "mvg":
        return MVGModel(covariance=doc.entry("model.covariance", "m"), jitter=jitter, shape=shape)
    if family == "ig":
        return IGModel(variances=doc.entry("model.variances", "v"), jitter=jitter, shape=shape)
    if family == "var":
        order = doc.entry("model.order", "i")
        coef = np.stack([doc.entry(f"model.coef.{i}", "m") for i in range(order)])
        return VARModel(order=order, coef=coef, intercept=doc.entry("model.intercept", "v"),
                        noise_cov=doc.entry("model.noise_cov", "m"))
    if family == "pwi":
        t, k = doc.entry("model.frames", "i"), doc.entry("model.bones", "i")
        means, covs = doc.entry("model.means", "m"), doc.entry("model.covariances", "m")
        _check_sizes(doc, ["model.frames", "model.bones"],
                     means.shape == (t * k, 3) and covs.shape == (2 * t * k, 2 * k),
                     f"'model.means' {means.shape} and 'model.covariances' {covs.shape}")
        return PWIModel(means=means.reshape(t, k, 3), covariances=covs.reshape(t, 2 * k, 2 * k),
                        diagonal=bool(doc.entry("model.diagonal", "i")))
    raise KindMismatch(f"unknown model family {family!r}")


def save_bundle(path, bundle: EmulatorBundle):
    items = [("kind", bundle.kind), ("model_type", bundle.model_type),
             ("length", bundle.length), ("start_policy", bundle.start_policy),
             ("meta", json.dumps(bundle.meta, sort_keys=True))]
    items.append(("reference", bundle.reference))
    if bundle.start_postures is None:
        items.append(("start.count", 0))
    else:
        s, k, _ = bundle.start_postures.shape
        items.append(("start.count", s))
        items.append(("start.postures", bundle.start_postures.reshape(s * k, 3)))
    items.append(("has_spatial", int(bundle.spatial is not None)))
    if bundle.spatial is not None:
        items.extend(_spatial_items("spatial", bundle.spatial))
    items.append(("has_fpca", int(bundle.fpca is not None)))
    if bundle.fpca is not None:
        items.extend(_fpca_items("fpca", bundle.fpca))
    items.append(("var_init", bundle.var_init))
    items.extend(_model_items(bundle.model))
    write_doc(path, BUNDLE_DOC, VERSION, items)


def load_bundle(path) -> EmulatorBundle:
    doctype, version, doc = read_doc(path)
    if doctype != BUNDLE_DOC or version != VERSION:
        raise DimensionMismatch(f"{path}: not a version-{VERSION} bundle document")
    # model_type fixes the stages and the kind: pwi has no reduction and is
    # 'intrinsic', var a spatial one only, mvg and ig both, and those three
    # need an emulator flattening; a posture-wise bundle has no reference,
    # and only a VAR bundle has initial lags
    model_type, kind = doc.entry("model_type", "s"), doc.entry("kind", "s")
    has_spatial, has_fpca = model_type != "pwi", model_type in ("mvg", "ig")
    wrong = [name for name, tag, want in [("has_spatial", "i", has_spatial),
                                          ("has_fpca", "i", has_fpca),
                                          ("model.family", "s", model_type)]
             if doc.entry(name, tag) != want]
    _check_sizes(doc, wrong, not wrong, f"'model_type' = {model_type}")
    kinds = ("intrinsic",) if model_type == "pwi" else EMULATOR_KINDS
    _check_sizes(doc, ["kind"], kind in kinds, f"'model_type' = {model_type}")
    reference = doc.entry("reference", "x" if model_type == "pwi" else "m")
    var_init = doc.entry("var_init", "m" if model_type == "var" else "x")
    if var_init is not None:
        _check_sizes(doc, ["model.order"], var_init.shape[1] == doc.entry("model.order", "i"),
                     f"'var_init' {var_init.shape}")
    start = None
    if s := doc.entry("start.count", "i"):
        start = doc.entry("start.postures", "m")
        bones = start.shape[0] // s if reference is None else reference.shape[0]
        _check_sizes(doc, ["start.count"], start.shape == (s * bones, 3),
                     f"'start.postures' {start.shape} for {bones} bones")
        start = start.reshape(s, bones, 3)
    spatial = _spatial_from(doc, "spatial") if has_spatial else None
    fpca = _fpca_from(doc, "fpca") if has_fpca else None
    model, length = _model_from(doc), doc.entry("length", "i")
    if fpca is not None:
        cols = length - 1 if kind in VELOCITY_KINDS else length
        _check_sizes(doc, ["length"], cols == fpca.means.shape[1], f"'fpca.means' {fpca.means.shape}")
        if isinstance(model, (MVGModel, IGModel)):
            _check_sizes(doc, ["model.rows", "model.cols"], model.shape == fpca.dims,
                         f"the FPCA's {fpca.dims} coefficients")
    return EmulatorBundle(kind=kind, model_type=model_type, model=model, length=length,
                          reference=reference, spatial=spatial, fpca=fpca,
                          start_policy=doc.entry("start_policy", "s"), start_postures=start,
                          var_init=var_init, meta=json.loads(doc.entry("meta", "s")))


def save_reduction(path, spatial: SpatialPCA, fpca: FPCABasis = None):
    items = [("has_spatial", 1), *_spatial_items("spatial", spatial),
             ("has_fpca", int(fpca is not None))]
    if fpca is not None:
        items.extend(_fpca_items("fpca", fpca))
    # No reduction has an MPCA stage; the entry keeps the document, and the
    # manifests that hash it, byte-identical to the earlier format, which
    # earlier releases still read.
    items.append(("has_mpca", 0))
    write_doc(path, REDUCTION_DOC, VERSION, items)


def load_reduction(path):
    """Read a reduction document; returns (spatial, fpca or None)."""
    doctype, version, doc = read_doc(path)
    if doctype != REDUCTION_DOC or version != VERSION:
        raise DimensionMismatch(f"{path}: not a version-{VERSION} reduction document")
    if not doc.entry("has_spatial", "i"):
        raise KindMismatch(f"{path}: reduction document lacks a spatial basis")
    fpca = _fpca_from(doc, "fpca") if doc.entry("has_fpca", "i") else None
    return _spatial_from(doc, "spatial"), fpca
