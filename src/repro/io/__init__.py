"""Persistence: training-set CSVs and Spark configuration files.

The paper's implementation (Section 3.4) stores the training set ``S``
"in a CSV file" and writes tuned configurations back to Spark's
configuration file, ``spark-dac.conf``, for ``spark-submit`` to pick
up.  This package reproduces both formats, so collected sets can be
exported and tuned configurations are directly usable on a real
cluster.  :mod:`repro.io.codecs` holds the blob form in which the run
store keeps training sets and models.
"""

from repro.io.csvsets import dumps_training_set, save_training_set
from repro.io.sparkconf_file import (
    format_spark_submit,
    load_spark_conf,
    save_spark_conf,
)

__all__ = [
    "dumps_training_set",
    "format_spark_submit",
    "load_spark_conf",
    "save_spark_conf",
    "save_training_set",
]
