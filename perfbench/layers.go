package main

import (
	"fmt"
	"io"
)

// layerTolerance is how far the measured layers may exceed the traced wall
// time before the table is rejected: layers timed independently that sum
// to more than the wall clock overlap or double count.
const layerTolerance = 0.10

// layerTable splits one phase's traced wall time into its layers. Each row
// is measured on its own; "other" is the wall time no row accounts for.
type layerTable struct {
	phase string
	rows  map[string]float64
	wall  float64
}

func newLayerTable(phase string) *layerTable {
	return &layerTable{phase: phase, rows: map[string]float64{}}
}

func (lt *layerTable) add(layer string, seconds float64) { lt.rows[layer] += seconds }

// finish derives "other", reports every row as a share of the wall time,
// prints the table, and fails when the layers stray beyond layerTolerance
// from the wall time.
func (lt *layerTable) finish(rep report, log io.Writer) error {
	var sum float64
	for _, l := range layerNames[lt.phase] {
		if l != "other" {
			sum += lt.rows[l]
		}
	}
	lt.rows["other"] = lt.wall - sum
	fmt.Fprintf(log, "perfbench: layers of %s (traced wall %.3f s)\n", lt.phase, lt.wall)
	for _, l := range layerNames[lt.phase] {
		share := lt.rows[l] / lt.wall
		rep["share."+lt.phase+"."+l] = share
		fmt.Fprintf(log, "  %-18s %9.4f s %6.1f%%\n", l, lt.rows[l], 100*share)
	}
	if lt.wall <= 0 || sum > (1+layerTolerance)*lt.wall || sum < 0 {
		return fmt.Errorf("layers of %s sum to %.4f s against a traced wall of %.4f s", lt.phase, sum, lt.wall)
	}
	return nil
}
