// Package core is the testdata stub of a compute-kernel package: one
// metered operator (MineWith) and some cheap ungoverned helpers, so the
// locksafe corpora can exercise the heavy-call-under-lock distinction.
package core

import "gea/internal/exec"

type Algorithm int

func (a Algorithm) String() string { return "lattice" }

func MineWith(c *exec.Ctl, prefix string) ([]int, bool, error) {
	if err := c.Point(1); err != nil {
		if exec.IsBudget(err) {
			return nil, true, nil
		}
		return nil, false, err
	}
	return []int{1}, false, nil
}

// Describe is a cheap package-level helper: no Ctl, no context — fine
// to call under a registry lock.
func Describe(n int) string { return "stub" }
