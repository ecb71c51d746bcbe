"""Terminal visualisation: the text analogue of DBSherlock's GUI.

The paper's component (3) is a graphical plot of performance metrics with
user-selectable regions (Figure 3).  Offline and headless, we render it as
ASCII: time-series plots with region overlays, compact sparklines, and a
full incident report.
"""

from repro.viz.ascii import (
    incident_report,
    plot_series,
    sparkline,
)

__all__ = ["sparkline", "plot_series", "incident_report"]
