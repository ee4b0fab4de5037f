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

// paperTable2 is the published Table 2 for reference, keyed by
// (processors, line size).
var paperTable2 = map[[2]int]string{
	{4, 16}: "4", {4, 32}: "4", {4, 64}: "4", {4, 128}: "4",
	{6, 16}: "6", {6, 32}: "6", {6, 64}: "6", {6, 128}: "2:3",
	{8, 16}: "8", {8, 32}: "8", {8, 64}: "2:4", {8, 128}: "2:4",
	{12, 16}: "12", {12, 32}: "2:6", {12, 64}: "2:6", {12, 128}: "3:4",
	{18, 16}: "2:9", {18, 32}: "3:6", {18, 64}: "3:6", {18, 128}: "3:2:3",
	{24, 16}: "2:12", {24, 32}: "3:8", {24, 64}: "2:2:6", {24, 128}: "2:3:4",
	{36, 16}: "3:12", {36, 32}: "2:3:6", {36, 64}: "2:3:6", {36, 128}: "3:3:4",
	{54, 16}: "2:3:9", {54, 32}: "3:3:6", {54, 64}: "3:3:6", {54, 128}: "3:3:2:3",
	{72, 16}: "2:3:12", {72, 32}: "3:3:8", {72, 64}: "2:2:3:6", {72, 128}: "2:3:3:4",
	{108, 16}: "3:3:12", {108, 32}: "2:3:3:6", {108, 64}: "2:3:3:6", {108, 128}: "3:3:3:4",
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
				want := paperTable2[[2]int{p, line}]
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
