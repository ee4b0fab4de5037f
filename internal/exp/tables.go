package exp

import (
	"fmt"

	"ringmesh/internal/network"
	"ringmesh/internal/packet"
)

// nicBufferTable is Table 1: closed-form NIC buffer sizes, no
// simulation.
func nicBufferTable([]Series) Table {
	t := Table{
		Title:  "NIC buffer memory (bytes)",
		Header: []string{"network", "line", "cl (paper)", "cl (this impl)", "4-flit", "1-flit"},
	}
	for _, line := range lineSizes {
		cl := packet.RingSizing.CacheLineFlits(line)
		t.Rows = append(t.Rows, []string{
			"ring (128b)", fmt.Sprintf("%dB", line),
			fmt.Sprintf("%d", cl*packet.RingSizing.FlitBytes),
			fmt.Sprintf("%d", 2*cl*packet.RingSizing.FlitBytes),
			"-", "-",
		})
	}
	for _, line := range lineSizes {
		cl := packet.MeshSizing.CacheLineFlits(line)
		fb := packet.MeshSizing.FlitBytes
		t.Rows = append(t.Rows, []string{
			"mesh (32b)", fmt.Sprintf("%dB", line),
			fmt.Sprintf("%d", 4*cl*fb),
			fmt.Sprintf("%d", 4*cl*fb),
			fmt.Sprintf("%d", 4*4*fb),
			fmt.Sprintf("%d", 4*1*fb),
		})
	}
	return t
}

// table2Sizes is the processor-count column of the paper's Table 2.
var table2Sizes = []int{4, 6, 8, 12, 18, 24, 36, 54, 72, 108}

// topologyTables is Table 2: the topology search's pick per
// (processors, line size) beside the published one, and how many agree.
func topologyTables([]Series) []Table {
	t := Table{
		Title:  "Optimal hierarchical ring topology (ours vs paper)",
		Header: []string{"processors", "16B", "32B", "64B", "128B"},
	}
	match, total := 0, 0
	for _, p := range table2Sizes {
		row := []string{fmt.Sprintf("%d", p)}
		for _, line := range lineSizes {
			cell := "-"
			spec, err := network.RingTopologyFor(p, line)
			if err == nil {
				cell = spec.String()
				want := network.PaperTable2[[2]int{p, line}]
				total++
				if cell == want {
					match++
				} else {
					cell = fmt.Sprintf("%s (paper: %s)", cell, want)
				}
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t, {
		Title:  "Agreement with the published table",
		Header: []string{"metric", "value"},
		Rows: [][]string{{
			"exact matches", fmt.Sprintf("%d / %d", match, total),
		}},
	}}
}
