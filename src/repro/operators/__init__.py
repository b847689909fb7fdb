"""Built-in PreDatA operators (§V: the evaluated operations).

- :mod:`repro.operators.minmax` — local/global min-max characterisation
  (the canonical ``Partial_calculate`` example of §IV.B);
- :mod:`repro.operators.histogram` — histograms over one particle
  attribute (online monitoring, Fig. 7(b)(e)) or two
  (parallel-coordinate visualisation, Fig. 7(c)(f)), one operator for
  both, and the global-edges pass the bitmap index shares;
- :mod:`repro.operators.sort` — parallel sample sort of particles by
  their global label (Fig. 7(a)(d));
- :mod:`repro.operators.bitmap` — WAH-compressed bitmap index for
  range queries over particle coordinates (§II.A task 2);
- :mod:`repro.operators.array_merge` — 3-D array layout reorganisation
  merging partial chunks into large contiguous regions (Pixie3D,
  Fig. 11);
- :mod:`repro.operators.filter` — compute-node-side region filtering
  (a Stage-1a data-reduction example) and the row-selection tail it
  shares with :mod:`repro.operators.reduction`'s subsampling.
"""

from repro.operators.minmax import MinMaxOperator
from repro.operators.histogram import HistogramOperator
from repro.operators.sort import SampleSortOperator
from repro.operators.bitmap import BitmapIndex, BitmapIndexOperator
from repro.operators.array_merge import ArrayMergeOperator
from repro.operators.filter import FilterOperator
from repro.operators.reduction import PrecisionReduceOperator, SubsampleOperator

__all__ = [
    "ArrayMergeOperator",
    "BitmapIndex",
    "BitmapIndexOperator",
    "FilterOperator",
    "HistogramOperator",
    "MinMaxOperator",
    "PrecisionReduceOperator",
    "SampleSortOperator",
    "SubsampleOperator",
]
