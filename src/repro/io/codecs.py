"""The one stored format of training sets and models: columnar blobs.

The :class:`~repro.store.RunStore` writes every ``training_set`` and
``model`` entry as a :mod:`repro.store.blobfmt` container, and the
entry's kind alone fixes that format; a change to it bumps the kind's
``KIND_SCHEMAS`` version, so older entries read back as absent and are
rewritten.  These four functions lower each object to blob bytes and
rebuild it from its sections, which the store either decodes from a
digest-checked payload or memory-maps read-only from the object file.
"""

from __future__ import annotations

from repro.store import blobfmt


def encode_training_set(training_set) -> bytes:
    """A training set's float64 columns as blob bytes."""
    meta = {
        "n": len(training_set),
        "space": training_set.space.name,
        "params": list(training_set.space.names),
    }
    return blobfmt.encode_sections(
        training_set.to_columns(), meta=meta, kind="training_set"
    )


def training_set_from_sections(header, sections, space=None):
    """The training set a blob holds, over ``space`` (default: Spark's).

    Raises ``ValueError`` when the blob covers other parameters.
    """
    from repro.core.collecting import TrainingSet

    if space is None:
        from repro.sparksim.confspace import SPARK_CONF_SPACE

        space = SPARK_CONF_SPACE
    meta = header.get("meta", {})
    if list(meta.get("params", [])) != list(space.names):
        raise ValueError("stored training set covers a different parameter space")
    return TrainingSet(space, sections)


def encode_model(model) -> bytes:
    """A fitted model's node tables and stacking weights as blob bytes.

    Raises ``ValueError`` for a model that does not lower to sections
    (see :meth:`~repro.models.hierarchical.HierarchicalModel.to_sections`).
    """
    sections, meta = model.to_sections()
    return blobfmt.encode_sections(sections, meta=meta, kind="model")


def model_from_sections(header, sections):
    """The :class:`~repro.models.hierarchical.HierarchicalModel` a blob holds."""
    from repro.models.hierarchical import HierarchicalModel

    return HierarchicalModel.from_sections(sections, header.get("meta", {}))
