package errstats

import (
	"fmt"
	"io"
)

// Rendering of Table 4-style profiles: a fixed-width text table for one or
// more datasets side by side, and a CSV export with the full per-attribute
// breakdown for downstream analysis.

// Column pairs one analyzed dataset with its display name.
type Column struct {
	Name  string
	Table *Table
}

// RenderText writes the irregularity profile of the given datasets side by
// side, one row per error type, each cell showing the most common
// attribute, its count and its percentage.
func RenderText(w io.Writer, cols []Column) {
	fmt.Fprintf(w, "%-17s", "error type")
	for _, c := range cols {
		fmt.Fprintf(w, " | %-30s", fmt.Sprintf("%s (%d rec / %d pairs)", c.Name, c.Table.TotalRecords, c.Table.TotalPairs))
	}
	fmt.Fprintln(w)
	for _, e := range SingletonTypes {
		fmt.Fprintf(w, "%-17s", e)
		for _, c := range cols {
			fmt.Fprintf(w, " | %-30s", renderCell(c.Table.Singletons[e], c.Table.TotalRecords))
		}
		fmt.Fprintln(w)
	}
	for _, e := range PairTypes {
		fmt.Fprintf(w, "%-17s", e)
		for _, c := range cols {
			fmt.Fprintf(w, " | %-30s", renderCell(c.Table.PairBased[e], c.Table.TotalPairs))
		}
		fmt.Fprintln(w)
	}
}

func renderCell(s *Stat, norm int) string {
	attr, n := s.MostCommon()
	if n == 0 {
		return "-"
	}
	pct := 0.0
	if norm > 0 {
		pct = 100 * float64(n) / float64(norm)
	}
	return fmt.Sprintf("%s %d (%.1f%%)", attr, n, pct)
}
