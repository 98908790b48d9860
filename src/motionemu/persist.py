"""Serialization of fitted objects to tagged text documents.

Documents are versioned; readers reject other types and versions.  Every
array is stored whole, so the reader takes every size from the arrays
themselves and checks only that arrays stored as separate entries agree.
"""

import json

import numpy as np

from .dimred import FPCABasis, SpatialPCA
from .errors import DimensionMismatch, KindMismatch
from .flatten import field_columns, grid_dt
from .io import _check_postures, _first_bad, read_doc, write_doc
from .models import DENSITY_MODELS, EMULATOR_KINDS, REDUCTIONS, EmulatorBundle, PWIModel, VARModel

BUNDLE_DOC = "emulator-bundle"
REDUCTION_DOC = "reduction"
VERSION = 2


def _agree(doc, ok, name, *others):
    """Refuse an entry that disagrees with others, naming each entry with
    its shape or value."""
    if not ok:
        said = [f"{n!r} {doc[n].shape}" if isinstance(doc[n], np.ndarray) else f"{n!r} = {doc[n]}"
                for n in (name, *others)]
        raise DimensionMismatch(f"{doc.path}: entry {said[0]} does not match "
                                f"{' and '.join(said[1:])}")


def _read(path, doctype):
    found, version, doc = read_doc(path)
    if (found, version) != (doctype, VERSION):
        raise DimensionMismatch(f"{path}: not a version-{VERSION} {doctype} document")
    return doc


def _spatial_items(pca: SpatialPCA):
    return [("spatial.mean", pca.mean), ("spatial.basis", pca.basis),
            ("spatial.eigenvalues", pca.eigenvalues),
            ("spatial.total_variance", float(pca.total_variance))]


def _spatial_from(doc):
    spatial = SpatialPCA(mean=doc.array("spatial.mean", 1), basis=doc.array("spatial.basis", 2),
                         eigenvalues=doc.array("spatial.eigenvalues", 1),
                         total_variance=doc.entry("spatial.total_variance", "f"))
    _agree(doc, len(spatial.mean) == len(spatial.basis), "spatial.mean", "spatial.basis")
    return spatial


def _fpca_items(basis: FPCABasis):
    return [("fpca.means", basis.means), ("fpca.bases", basis.bases),
            ("fpca.eigenvalues", basis.eigenvalues), ("fpca.dt", float(basis.dt))]


def _fpca_from(doc, spatial):
    """The FPCA, with one curve row per spatial basis column."""
    fpca = FPCABasis(means=doc.array("fpca.means", 2), bases=doc.array("fpca.bases", 3),
                     eigenvalues=doc.array("fpca.eigenvalues", 2), dt=doc.entry("fpca.dt", "f"))
    _agree(doc, fpca.bases.shape[:2] == fpca.means.shape, "fpca.bases", "fpca.means")
    _agree(doc, len(fpca.means) == spatial.dim, "fpca.means", "spatial.basis")
    return fpca


def _model_items(model):
    if type(model) in DENSITY_MODELS.values():
        return [(f"model.{model.stored}", getattr(model, model.stored)),
                ("model.jitter", model.jitter)]
    if isinstance(model, VARModel):
        return [("model.coef", model.coef), ("model.intercept", model.intercept),
                ("model.noise_cov", model.noise_cov)]
    if isinstance(model, PWIModel):
        return [("model.diagonal", int(model.diagonal)), ("model.means", model.means),
                ("model.covariances", model.covariances)]
    raise KindMismatch(f"cannot serialize model {type(model).__name__}")


def _model_from(doc, model_type, spatial, fpca):
    """The model of a known model_type; a Gaussian's size must be the FPCA's
    coefficient count and its jitter and variances nonnegative, a VAR's size
    the spatial basis's column count, and PWI covariances must match the means."""
    if model_type in DENSITY_MODELS:
        family, jitter = DENSITY_MODELS[model_type], doc.entry("model.jitter", "f")
        if jitter < 0.0:
            raise DimensionMismatch(f"{doc.path}: entry 'model.jitter' = {jitter} is negative")
        name = f"model.{family.stored}"
        stored = doc.array(name, family.axes)
        _agree(doc, stored.shape == (int(np.prod(fpca.dims)),) * family.axes, name, "fpca.bases")
        # each family holds coefficient i's variance at index (i, ..., i)
        variances = stored[(np.arange(len(stored)),) * family.axes]
        _first_bad(doc.path, f"entry {name!r}, coefficient", variances < 0.0, "negative variance")
        return family(stored, jitter, fpca.dims)
    if model_type == "var":
        coef, intercept = doc.array("model.coef", 3), doc.array("model.intercept", 1)
        noise_cov, d1 = doc.array("model.noise_cov", 2), spatial.dim
        _agree(doc, coef.shape[1:] == (d1, d1), "model.coef", "spatial.basis")
        _agree(doc, intercept.shape == (d1,), "model.intercept", "spatial.basis")
        _agree(doc, noise_cov.shape == (d1, d1), "model.noise_cov", "spatial.basis")
        return VARModel(order=len(coef), coef=coef, intercept=intercept, noise_cov=noise_cov)
    means, covs = doc.array("model.means", 3), doc.array("model.covariances", 3)
    t, k, c = means.shape
    _agree(doc, c == 3 and covs.shape == (t, 2 * k, 2 * k), "model.covariances", "model.means")
    _check_postures(doc.path, "entry 'model.means', frame", means)
    return PWIModel(means=means, covariances=covs, diagonal=bool(doc.entry("model.diagonal", "i")))


def save_bundle(path, bundle: EmulatorBundle):
    items = [("kind", bundle.kind), ("model_type", bundle.model_type),
             ("length", bundle.length), ("start_policy", bundle.start_policy),
             ("meta", json.dumps(bundle.meta, sort_keys=True)),
             ("reference", bundle.reference), ("start.postures", bundle.start_postures)]
    if bundle.spatial is not None:
        items += _spatial_items(bundle.spatial)
    if bundle.fpca is not None:
        items += _fpca_items(bundle.fpca)
    items += [("var_init", bundle.var_init), *_model_items(bundle.model)]
    write_doc(path, BUNDLE_DOC, VERSION, items)


def load_bundle(path) -> EmulatorBundle:
    doc = _read(path, BUNDLE_DOC)
    # model_type fixes the reduction (REDUCTIONS); with none, the kind is
    # 'intrinsic' with no reference or start posture, else an emulator
    # flattening with at least one; only a VAR has initial lags and needs as
    # many columns; a spatial mean has two coordinates per bone; an FPCA is on length's grid
    model_type, kind = doc.entry("model_type", "s"), doc.entry("kind", "s")
    if model_type not in REDUCTIONS:
        raise KindMismatch(f"{doc.path}: unknown model_type {model_type!r}")
    pwi = REDUCTIONS[model_type] == "none"
    _agree(doc, kind in (("intrinsic",) if pwi else EMULATOR_KINDS), "kind", "model_type")
    if pwi:
        reference, start = doc.entry("reference", "x"), doc.entry("start.postures", "x")
    else:
        reference, start = doc.array("reference", 2), doc.array("start.postures", 3)
        _agree(doc, start.shape[1:] == reference.shape, "start.postures", "reference")
        if not len(start):
            raise DimensionMismatch(f"{doc.path}: entry 'start.postures' holds no posture")
        _check_postures(doc.path, "entry 'reference', bone", reference[:, None])
        _check_postures(doc.path, "entry 'start.postures', posture", start)
    spatial = None if pwi else _spatial_from(doc)
    if spatial is not None:
        _agree(doc, len(spatial.mean) == 2 * len(reference), "spatial.mean", "reference")
    fpca = _fpca_from(doc, spatial) if REDUCTIONS[model_type] == "seqpca" else None
    model, length = _model_from(doc, model_type, spatial, fpca), doc.entry("length", "i")
    if fpca is not None:
        _agree(doc, field_columns(kind, length) == fpca.means.shape[1], "length", "fpca.means")
        _agree(doc, length >= 2 and fpca.dt == grid_dt(length), "fpca.dt", "length")
    var_init = doc.array("var_init", 2) if model_type == "var" else doc.entry("var_init", "x")
    if var_init is not None:
        _agree(doc, var_init.shape == (model.coef.shape[1], model.order), "var_init", "model.coef")
        _agree(doc, length >= 2 and field_columns(kind, length) >= model.order, "length",
               "model.coef")
    try:
        meta = json.loads(doc.entry("meta", "s"))
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise DimensionMismatch(f"{doc.path}: entry 'meta' is not a JSON object")
    return EmulatorBundle(kind=kind, model_type=model_type, model=model, length=length,
                          reference=reference, spatial=spatial, fpca=fpca,
                          start_policy=doc.entry("start_policy", "s"), start_postures=start,
                          var_init=var_init, meta=meta)


def save_reduction(path, spatial: SpatialPCA, fpca: FPCABasis = None):
    items = [*_spatial_items(spatial), ("has_fpca", int(fpca is not None))]
    if fpca is not None:
        items += _fpca_items(fpca)
    write_doc(path, REDUCTION_DOC, VERSION, items)


def load_reduction(path):
    """Read a reduction document; returns (spatial, fpca or None)."""
    doc = _read(path, REDUCTION_DOC)
    spatial = _spatial_from(doc)
    return spatial, _fpca_from(doc, spatial) if doc.entry("has_fpca", "i") else None
