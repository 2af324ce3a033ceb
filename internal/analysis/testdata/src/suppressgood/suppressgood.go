// Good corpus for the suppress analyzer: well-formed, reasoned
// directives naming real analyzers produce no diagnostics.
package suppressgood

import "gea/internal/exec"

// Bounded registration-style loop with a standalone directive above it.
func Register(c *exec.Ctl, rows []int) int {
	total := 0
	//lint:gea ctlcharge -- registration loop is bounded by the metered mining pass above
	for _, r := range rows {
		total += r
	}
	return total
}

// A directive may silence several analyzers at once, trailing the line.
func Mixed(c *exec.Ctl, rows []int) int {
	total := 0
	for _, r := range rows { //lint:gea ctlcharge, locksafe -- loop is O(len(rows)) over an admission-bounded slice
		total += r
	}
	return total
}

// Comments in some other tool's namespace are not ours to validate.
func Foreign() {
	//lint:file-ignored some other linter's grammar entirely
	_ = 0
}
