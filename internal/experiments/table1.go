package experiments

import (
	"hetsort/internal/cluster"
	"hetsort/internal/stats"
)

// Table 1 of the paper is the static description of the testbed: four
// Alpha 21164 EV56 533 MHz nodes with SCSI /work partitions on Fast
// Ethernet.  Table1 reproduces it as the description of the simulated
// cluster: which paper machine each simulated node stands in for, its
// load factor, and the modelled interconnects.

// Table1Row describes one simulated node.
type Table1Row struct {
	Node      int
	PaperNode string
	Slowdown  float64
	Perf      int
	Disk      string
}

// Table1 returns the simulated testbed description.  Node order follows
// PaperVector: nodes 0,1 are the loaded machines (siegrune, rossweisse),
// nodes 2,3 the fast ones (helmvige, grimgerde).
func Table1(o Options) []Table1Row {
	o = o.withDefaults()
	names := []string{"siegrune", "rossweisse", "helmvige", "grimgerde"}
	slow := PaperVector.Slowdowns()
	rows := make([]Table1Row, len(PaperVector))
	for i := range rows {
		disk := "in-memory FS"
		if o.OnDisk {
			disk = "directory-backed FS"
		}
		rows[i] = Table1Row{
			Node:      i,
			PaperNode: names[i],
			Slowdown:  slow[i],
			Perf:      PaperVector[i],
			Disk:      disk,
		}
	}
	return rows
}

// Table1String renders the configuration including the two network
// models.
func Table1String(rows []Table1Row) string {
	t := &stats.Table{
		Title:   "Table 1: simulated cluster configuration (stand-ins for the paper's Alpha nodes)",
		Headers: []string{"Node", "Paper machine", "Load", "perf[i]", "Disk"},
	}
	for _, r := range rows {
		t.AddRow(r.Node, r.PaperNode, r.Slowdown, r.Perf, r.Disk)
	}
	out := t.String()
	out += "Networks: " + cluster.NetFastEthernet.Model().String() + ", " + cluster.NetMyrinet.Model().String() + "\n"
	return out
}
