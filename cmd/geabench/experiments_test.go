package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBrainPipelineRetriesAfterDeadline pins that a brain search stopped
// by -deadline is not memoized: the next experiment searches again
// instead of reading an empty fascicle name.
func TestBrainPipelineRetriesAfterDeadline(t *testing.T) {
	e := benchEnv(t)
	e.deadline = time.Nanosecond
	if _, _, _, _, err := brainPipeline(e); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("search under a 1ns deadline: got %v, want DeadlineExceeded", err)
	}
	e.deadline = 0
	_, _, inFas, groups, err := brainPipeline(e)
	if err != nil {
		t.Fatalf("search after the deadline stop: %v", err)
	}
	if groups.InFascicle == "" || len(inFas) == 0 {
		t.Fatalf("search after the deadline stop returned groups %+v and %d libraries", groups, len(inFas))
	}
}
