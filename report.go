package hetsort

import (
	"hetsort/internal/extsort"
	"hetsort/internal/vtime"
)

// TimeBreakdown splits a node's virtual clock into the four activity
// categories the simulator attributes every clock advance to, plus the
// disk time Config.Overlap hid.  The four categories sum to the node's
// clock.
type TimeBreakdown = vtime.Breakdown

// Report describes one sort run: virtual time, per-step breakdown,
// final load balance, and I/O counts — the quantities the paper's
// evaluation tables report.  Sort, SortFile and Resume return it for
// every algorithm; see extsort.Report for the fields.
type Report = extsort.Report
