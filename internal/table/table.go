// Package table renders aligned plain-text tables: the header row, a
// row of dashes under each column, then the data rows. Each column is
// padded to its widest cell and columns are separated by two spaces.
// The experiment tables, the scenario reports and topoattack's curves
// all print through Write.
package table

import (
	"fmt"
	"io"
	"strings"
)

// Write renders header and rows to w in one write. A row may be shorter
// than the header; it may not be longer.
func Write(w io.Writer, header []string, rows [][]string) error {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
